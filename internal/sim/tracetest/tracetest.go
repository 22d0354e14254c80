// Package tracetest holds the test-only inverse of the canonical trace
// encoding (sim.Trace.AppendCanonical): a strict decoder, and the
// round-trip check that turns "the binary digest separates whatever the
// text rendering separates" from a sampled claim into a proved one. If
// WriteText(Decode(AppendCanonical(tr))) equals WriteText(tr) byte for
// byte, the text is a function of the binary bytes, so two traces with
// different renderings can never share an encoding, hence (SHA-256
// aside) never a Digest.
//
// It is a package rather than a _test file because two packages' tests
// use it (internal/sim and internal/experiments, one per golden grid);
// nothing outside tests imports it.
package tracetest

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// reader consumes an encoding front to back and keeps the first error.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("tracetest: "+format, args...)
	}
}

// uvarint reads one minimally encoded uvarint; the encoder never pads,
// so padding would break Decode∘Append = identity.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong uvarint with %d bytes left", len(r.b))
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.fail("padded uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint reads one zigzag varint.
func (r *reader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads an element count or byte length, bounded by the bytes
// left to read (every element takes at least one), so hostile input
// cannot ask for a huge allocation.
func (r *reader) count(what string) int {
	v := r.uvarint()
	if v > uint64(len(r.b)) {
		r.fail("%s %d exceeds the %d bytes left", what, v, len(r.b))
		return 0
	}
	return int(v)
}

// sendCount reads an event's send count, bounded by what the bytes left
// can hold: a run takes at least four bytes and covers at most 64 sends.
func (r *reader) sendCount() int {
	v := r.uvarint()
	if v > 16*uint64(len(r.b)) {
		r.fail("send count %d exceeds what the %d bytes left can hold", v, len(r.b))
		return 0
	}
	return int(v)
}

// value reads a length-prefixed rendering. The payload comes back as
// the string it rendered to, which renders to itself.
func (r *reader) value() any {
	n := r.count("value length")
	if r.err != nil {
		return nil
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// message reads a received or undelivered message as it stands after
// the events decoded so far. It returns nil for the λ marker.
func (r *reader) message(events []sim.EventRecord) *sim.Message {
	head := r.uvarint()
	switch {
	case r.err != nil || head == 0:
		return nil
	case head == 1:
		m := &sim.Message{
			ID:     int64(r.uvarint()),
			From:   model.ProcessID(r.uvarint()),
			To:     model.ProcessID(r.uvarint()),
			SentAt: model.Time(r.uvarint()),
			SentBy: int(r.varint()),
		}
		m.Payload = r.value()
		return m
	}
	j, k := head-2, r.uvarint()
	if r.err != nil {
		return nil
	}
	if k >= uint64(len(events)) || j >= uint64(len(events[k].Sends)) {
		r.fail("back-reference to send %d of event %d, which is not written yet", j, k)
		return nil
	}
	m := events[k].Sends[j]
	// The encoder finds j from the message IDs; a reference it could not
	// have produced would not re-encode to itself.
	if uint64(m.ID)-uint64(events[k].Sends[0].ID) != j {
		r.fail("back-reference to send %d of event %d, whose IDs are not consecutive", j, k)
		return nil
	}
	return m
}

// rendered is a send's payload as Decode rebuilds it: the string it
// rendered to, behind a pointer that every send of one run shares, so
// that re-encoding finds the same runs and no longer ones.
type rendered struct{ s string }

func (r *rendered) String() string { return r.s }

// Layout says how an encoding wrote what it may write in two forms:
// how many runs its sends took, and whether the undelivered buffer is
// the one-byte complement form.
type Layout struct {
	Runs       int
	Complement bool
}

// Decode rebuilds a trace from its canonical encoding: every field
// WriteText prints, payloads and event values as their rendered
// strings (a send's behind one pointer shared by its run), and a
// back-referenced message as the very object its sending event holds,
// so the result re-encodes to b. The fields a send record leaves to its
// event (From, SentAt, SentBy) are filled in from it. Decode accepts
// exactly the encoder's image: anything else is an error, never a
// panic.
func Decode(b []byte) (*sim.Trace, error) {
	tr, _, err := decode(b)
	return tr, err
}

// LayoutOf decodes b and reports its Layout.
func LayoutOf(b []byte) (Layout, error) {
	_, l, err := decode(b)
	return l, err
}

func decode(b []byte) (*sim.Trace, Layout, error) {
	var l Layout
	if !bytes.HasPrefix(b, []byte(sim.DigestVersion)) {
		return nil, l, fmt.Errorf("tracetest: encoding does not open with %q", sim.DigestVersion)
	}
	r := &reader{b: b[len(sim.DigestVersion):]}
	tr := &sim.Trace{N: int(r.uvarint()), Stopped: sim.StopReason(r.uvarint())}

	if n := r.uvarint(); n != 0 {
		// n − 1 processes; clamped so that a huge value is refused as too
		// many processes rather than wrapped by the conversion to int.
		f, err := model.NewFailurePattern(int(min(n-1, model.MaxProcesses+1)))
		if err != nil {
			return nil, l, fmt.Errorf("tracetest: %w", err)
		}
		for p := 1; p <= f.N(); p++ {
			if t := r.uvarint(); t != 0 {
				if err := f.Crash(model.ProcessID(p), model.Time(t-1)); err != nil {
					return nil, l, fmt.Errorf("tracetest: %w", err)
				}
			}
		}
		tr.Pattern = f
	}

	events := r.count("event count")
	tr.Events = make([]sim.EventRecord, 0, events)
	limit := min(tr.N, model.MaxProcesses) // a run's destinations lie in 1…limit
	received := map[*sim.Message]bool{}    // sends received by position
	next := int64(1)
	for i := 0; i < events && r.err == nil; i++ {
		ev := sim.EventRecord{
			Index: int(r.uvarint()),
			P:     model.ProcessID(r.uvarint()),
			T:     model.Time(r.uvarint()),
			FD:    setOf(r.uvarint()),
		}
		ev.PrevSameProc = int(r.varint())
		if ev.Msg = r.message(tr.Events); ev.Msg != nil {
			received[ev.Msg] = true // a message written in full is no send
		}
		if n := r.sendCount(); n > 0 {
			ev.Sends = make([]*sim.Message, 0, n)
		}
		for len(ev.Sends) < cap(ev.Sends) && r.err == nil {
			id := next + r.varint()
			to := model.ProcessID(r.uvarint())
			n := r.uvarint()
			v, _ := r.value().(string)
			payload := &rendered{v}
			left := uint64(cap(ev.Sends) - len(ev.Sends))
			switch {
			case r.err != nil:
			case n == 0 || n > left:
				r.fail("run of %d sends where %d are left", n, left)
			case n > 1 && (to < 1 || int(to) >= limit || n-1 > uint64(limit-int(to))):
				r.fail("run of %d sends to p%d… leaves 1…%d", n, to, limit)
			}
			for j := uint64(0); j < n && r.err == nil; j++ {
				ev.Sends = append(ev.Sends, &sim.Message{
					ID: id + int64(j), From: ev.P, To: to + model.ProcessID(j),
					SentAt: ev.T, SentBy: i, Payload: payload,
				})
			}
			next = id + int64(n)
			l.Runs++
		}
		if n := r.count("protocol event count"); n > 0 {
			ev.Events = make([]sim.ProtocolEvent, n)
		}
		for j := range ev.Events {
			pe := &ev.Events[j]
			pe.Kind = sim.EventKind(r.varint())
			pe.Instance = int(r.varint())
			pe.Value = r.value()
		}
		tr.Events = append(tr.Events, ev)
	}

	// The complement: every send not received by position, by (To, send
	// order). It is a form of the buffer only if every send goes to
	// 1…limit.
	var complement []*sim.Message
	stray := false
	for _, ev := range tr.Events {
		for _, m := range ev.Sends {
			stray = stray || m.To < 1 || int(m.To) > limit
			if !received[m] {
				complement = append(complement, m)
			}
		}
	}
	slices.SortStableFunc(complement, func(a, b *sim.Message) int { return cmp.Compare(a.To, b.To) })

	if head := r.uvarint(); head == 0 && r.err == nil {
		if stray {
			r.fail("undelivered buffer is the complement, but a send goes outside 1…%d", limit)
		}
		tr.Undelivered, l.Complement = complement, true
	} else if r.err == nil {
		if head-1 > uint64(len(r.b)) {
			r.fail("undelivered count %d exceeds the %d bytes left", head-1, len(r.b))
		}
		for i := uint64(0); i < head-1 && r.err == nil; i++ {
			m := r.message(tr.Events)
			if m == nil && r.err == nil {
				r.fail("undelivered message %d is the λ marker", i)
			}
			tr.Undelivered = append(tr.Undelivered, m)
		}
		if r.err == nil && !stray && slices.Equal(tr.Undelivered, complement) {
			r.fail("undelivered buffer written in full is the complement")
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the undelivered buffer", len(r.b))
	}
	if r.err != nil {
		return nil, l, r.err
	}
	return tr, l, nil
}

// setOf rebuilds a process set from its word.
func setOf(w uint64) model.ProcessSet {
	var s model.ProcessSet
	for p := 1; p <= model.MaxProcesses; p++ {
		if w&(1<<(p-1)) != 0 {
			s = s.Add(model.ProcessID(p))
		}
	}
	return s
}

// RoundTrip checks tr against its own encoding: the decoded trace must
// render the text tr renders, byte for byte, and must encode to the
// bytes it was decoded from.
func RoundTrip(tr *sim.Trace) error {
	enc := tr.AppendCanonical(nil)
	back, err := Decode(enc)
	if err != nil {
		return fmt.Errorf("decoding %d encoded bytes: %w", len(enc), err)
	}
	var want, got bytes.Buffer
	if err := errors.Join(tr.WriteText(&want), back.WriteText(&got)); err != nil {
		return err
	}
	if w, g := want.Bytes(), got.Bytes(); !bytes.Equal(w, g) {
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		lo := max(i-40, 0)
		return fmt.Errorf("decoded trace renders differently at byte %d (%d bytes vs %d):\nwant ...%q\ngot  ...%q",
			i, len(w), len(g), w[lo:min(i+40, len(w))], g[lo:min(i+40, len(g))])
	}
	if again := back.AppendCanonical(nil); !bytes.Equal(again, enc) {
		return fmt.Errorf("decoded trace re-encodes to %d bytes that differ from the %d it was decoded from", len(again), len(enc))
	}
	return nil
}

// TextHash is the hex SHA-256 of tr.WriteText: the value the golden
// trace files pin. It was Trace.Digest() before DigestVersion
// "fdtrace/2", which is why those files did not change when the digest
// went binary.
func TextHash(tr *sim.Trace) string {
	h := sha256.New()
	if err := tr.WriteText(h); err != nil {
		panic(err) // a hash.Hash never fails a Write
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SamePartition checks that two labellings of the same runs (by name)
// group them identically: runs share a text hash iff they share a
// digest. RoundTrip proves one direction for any trace; this observes
// both over a whole golden grid.
func SamePartition(text, digest map[string]string) error {
	if len(text) != len(digest) {
		return fmt.Errorf("the two labellings cover %d and %d runs", len(text), len(digest))
	}
	textOf, digestOf := map[string]string{}, map[string]string{}
	for name, th := range text {
		d, ok := digest[name]
		if !ok {
			return fmt.Errorf("run %s has a text hash but no digest", name)
		}
		if prev, seen := digestOf[th]; seen && prev != d {
			return fmt.Errorf("run %s: one text hash %s… under two digests %s… and %s…", name, th[:12], prev[:12], d[:12])
		}
		if prev, seen := textOf[d]; seen && prev != th {
			return fmt.Errorf("run %s: one digest %s… over two text hashes %s… and %s…", name, d[:12], prev[:12], th[:12])
		}
		digestOf[th], textOf[d] = d, th
	}
	return nil
}
