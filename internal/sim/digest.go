package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"unsafe"

	"realisticfd/internal/model"
)

// DigestVersion names the canonical encoding Digest hashes and opens it.
// A changed encoding is a new version (and checkpoint schema: harness).
const DigestVersion = "fdtrace/3"

// Digest returns a hex SHA-256 fingerprint of the full run — the hash
// of AppendCanonical. It is how the replay tests and the parallel-sweep
// determinism checks state "same Config + same Seed ⇒ same run", the
// property the Lemma 4.1 indistinguishability argument rests on.
//
// Version contract: equal digests ⇒ equal WriteText, on any two traces;
// on traces the engine built from automata that share payloads alike
// the converse holds too. Values are comparable only within one
// DigestVersion.
func (tr *Trace) Digest() string {
	s := tr.canon()
	s.buf = tr.AppendCanonical(s.buf[:0])
	sum := sha256.Sum256(s.buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// canonScratch is AppendCanonical's working memory, retained on the
// trace so that a RunContext-reused trace digests without allocating.
type canonScratch struct {
	buf []byte // the encoding Digest hashes
	// spans[k] locates Events[k].Sends: the ID of its first send, and
	// that send's position among all sends of the trace.
	spans []sendSpan
	// to[at] is the destination of the send at position at while no
	// event has received it, else 0, and count[q] is how many such sends
	// go to q. stray is set once a send's fields are not the ones its
	// event and position give it.
	to    []uint8
	count [model.MaxProcesses + 1]int
	stray bool
}

type sendSpan struct {
	first int64
	at    int
}

// canon returns the trace's encoder scratch, made on first use.
func (tr *Trace) canon() *canonScratch {
	if tr.scratch == nil {
		tr.scratch = &canonScratch{}
	}
	return tr.scratch
}

// AppendCanonical appends the trace's canonical binary encoding to b:
// DigestVersion, N, stop reason, pattern, every event (index, p, t, FD
// word, prev, received message, sends as runs, protocol events), the
// undelivered buffer (one byte when it holds exactly the sends nobody
// received). Integers are uvarints (zigzag varints where −1 is
// ordinary), payloads and event values a uvarint length and their %v
// rendering. It is the streaming sweeps' per-run hot path and the only
// encoder on it; it works in the trace's scratch, so two goroutines
// must not encode one trace at once. DESIGN.md §6 has the layout,
// internal/sim/tracetest the decoder that proves WriteText is a
// function of these bytes.
func (tr *Trace) AppendCanonical(b []byte) []byte {
	s := tr.canon()
	s.spans, s.to = s.spans[:0], s.to[:0]
	clear(s.count[:])
	s.stray = false
	limit := min(tr.N, model.MaxProcesses)

	b = append(b, DigestVersion...)
	b = binary.AppendUvarint(b, uint64(tr.N))
	b = binary.AppendUvarint(b, uint64(tr.Stopped))
	// Pattern: 0 for nil, else n + 1, then per process 0 or crash time + 1.
	if f := tr.Pattern; f == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(f.N())+1)
		for p := 1; p <= f.N(); p++ {
			t, crashed := f.CrashTime(model.ProcessID(p))
			if !crashed {
				t = -1
			}
			b = binary.AppendUvarint(b, uint64(t+1))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(tr.Events)))
	next := int64(1) // the ID the engine gives its first send
	for i := range tr.Events {
		ev := &tr.Events[i]
		b = binary.AppendUvarint(b, uint64(ev.Index))
		b = binary.AppendUvarint(b, uint64(ev.P))
		b = binary.AppendUvarint(b, uint64(ev.T))
		b = binary.AppendUvarint(b, ev.FD.Word())
		b = binary.AppendVarint(b, int64(ev.PrevSameProc))
		if ev.Msg == nil {
			b = append(b, refNone)
		} else {
			var at int
			if b, at = s.appendMessage(b, tr, ev.Msg, i); at >= 0 && s.to[at] != 0 {
				s.count[s.to[at]]--
				s.to[at] = 0
			}
		}

		span := sendSpan{at: len(s.to)}
		if len(ev.Sends) > 0 {
			span.first = ev.Sends[0].ID
		}
		s.spans = append(s.spans, span)
		b = binary.AppendUvarint(b, uint64(len(ev.Sends)))
		s.to = slices.Grow(s.to, len(ev.Sends))[:span.at+len(ev.Sends)]
		to := s.to[span.at:]
		for sends := ev.Sends; len(sends) > 0; {
			n := s.run(sends, to, ev, i, limit)
			m := sends[0]
			b = binary.AppendVarint(b, m.ID-next)
			b = binary.AppendUvarint(b, uint64(m.To))
			b = binary.AppendUvarint(b, uint64(n))
			b = appendValue(b, m.Payload)
			next = m.ID + int64(n)
			sends, to = sends[n:], to[n:]
		}

		b = binary.AppendUvarint(b, uint64(len(ev.Events)))
		for _, pe := range ev.Events {
			b = binary.AppendVarint(b, int64(pe.Kind))
			b = binary.AppendVarint(b, int64(pe.Instance))
			b = appendValue(b, pe.Value)
		}
	}
	if s.isComplement(tr) {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(tr.Undelivered))+1)
	for _, m := range tr.Undelivered {
		b, _ = s.appendMessage(b, tr, m, len(tr.Events))
	}
	return b
}

// run returns the length of the run that opens sends, the sends of
// Events[k]: the longest prefix with consecutive IDs, consecutive
// destinations in 1…limit, and one payload — equal strings or one
// pointer, so that rendering it once renders every send of the run.
// sim.Broadcast is one run, sim.AppendOthers two; any other send is a
// run of its own. The same pass notes each send of the run in to, for
// isComplement: one walk over the run, and one byte written per send.
func (s *canonScratch) run(sends []*Message, to []uint8, ev *EventRecord, k, limit int) int {
	m := sends[0]
	to[0] = s.note(m, ev, k, limit)
	str, isStr := m.Payload.(string)
	if m.To < 1 || int(m.To) >= limit || !isStr && reflect.ValueOf(m.Payload).Kind() != reflect.Pointer {
		return 1
	}
	n := 1
	for end := min(len(sends), limit-int(m.To)+1); n < end; n++ {
		next := sends[n]
		if next.ID != m.ID+int64(n) || next.To != m.To+model.ProcessID(n) {
			break
		}
		// One box is one payload. Failing that, equal strings in two
		// boxes still are; two pointer boxes are two pointers.
		if !sameBox(next.Payload, m.Payload) {
			if s, ok := next.Payload.(string); !isStr || !ok || s != str {
				break
			}
		}
		to[n] = s.note(next, ev, k, limit)
	}
	return n
}

// note counts m, a send of Events[k], as not yet received and returns
// its destination. A send whose To, From, SentAt or SentBy is not what
// a decoder would give it — the destination in 1…limit, the rest from
// its event — is stray, and note returns 0.
func (s *canonScratch) note(m *Message, ev *EventRecord, k, limit int) uint8 {
	if m.To < 1 || int(m.To) > limit || m.SentBy != k || m.From != ev.P || m.SentAt != ev.T {
		s.stray = true
		return 0
	}
	s.count[m.To]++
	return uint8(m.To)
}

// sameBox reports whether a and b are one box: the same dynamic type
// word and the same data word. That implies a == b for the payloads
// that form runs. A pointer type's data word is the pointer itself, and
// a string's points at one boxed header, which Go never writes after
// boxing. sim.Broadcast and shared fan-outs give every send of a
// broadcast one box, so a run's payload test is two word compares. The
// converse fails — equal strings boxed twice — so run falls back to ==.
// It is the package's one use of unsafe: the words are not reachable
// otherwise.
func sameBox(a, b any) bool {
	type eface struct{ typ, data unsafe.Pointer }
	return *(*eface)(unsafe.Pointer(&a)) == *(*eface)(unsafe.Pointer(&b))
}

// A received or undelivered message opens with refNone (λ), refFull and
// the whole record, or refBack+j and then k, meaning Events[k].Sends[j].
const (
	refNone = iota
	refFull
	refBack
)

// appendMessage writes m as it stands after `written` events. Nearly
// always m was already written as a send, and its position says as much
// as the record would: m must be the very object at Events[k].Sends[j]
// (k = SentBy < written; j found in O(1) from the consecutive IDs the
// engine assigns) and carry that event's P and T, which a send record
// leaves to its event. That position among all sends is returned, else
// −1. Anything else — hand-built traces, SentBy = −1, injected messages,
// copies — is written in full, so the encoding is injective on every
// Trace.
func (s *canonScratch) appendMessage(b []byte, tr *Trace, m *Message, written int) ([]byte, int) {
	if k := m.SentBy; k >= 0 && k < written {
		ev := &tr.Events[k]
		if j := uint64(m.ID) - uint64(s.spans[k].first); j < uint64(len(ev.Sends)) && ev.Sends[j] == m && m.From == ev.P && m.SentAt == ev.T {
			b = binary.AppendUvarint(binary.AppendUvarint(b, refBack+j), uint64(k))
			return b, s.spans[k].at + int(j)
		}
	}
	b = append(b, refFull)
	b = binary.AppendUvarint(b, uint64(m.ID))
	b = binary.AppendUvarint(b, uint64(m.From))
	b = binary.AppendUvarint(b, uint64(m.To))
	b = binary.AppendUvarint(b, uint64(m.SentAt))
	b = binary.AppendVarint(b, int64(m.SentBy))
	return appendValue(b, m.Payload), -1
}

// isComplement reports whether tr.Undelivered is, pointer for pointer,
// the sends no event received by position, ordered by (To, send order)
// — what an engine-built trace leaves, checked rather than assumed. It
// needs every send to carry what a decoder would give it (note); a
// trace with a stray send writes its buffer in full.
func (s *canonScratch) isComplement(tr *Trace) bool {
	if s.stray {
		return false
	}
	u := tr.Undelivered
	var slot [model.MaxProcesses + 1]int // where the next send to q belongs in u
	total := 0
	for q, c := range s.count {
		slot[q] = total
		total += c
	}
	if total != len(u) {
		return false
	}
	for k := range tr.Events {
		sends := tr.Events[k].Sends
		if len(sends) == 0 {
			continue
		}
		at := s.spans[k].at
		to := s.to[at : at+len(sends)]
		for j, m := range sends {
			if q := to[j]; q != 0 {
				if u[slot[q]] != m {
					return false
				}
				slot[q]++
			}
		}
	}
	return true
}

// appendValue appends v's rendering behind its uvarint length; only a
// string, most of what protocols send, has its length known beforehand.
func appendValue(b []byte, v any) []byte {
	if s, ok := v.(string); ok {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	at := len(b)
	b = appendRendered(b, v)
	var l [binary.MaxVarintLen64]byte
	return slices.Insert(b, at, l[:binary.PutUvarint(l[:], uint64(len(b)-at))]...)
}

// appendRendered appends fmt's %v rendering of v: what is hashed of a
// payload is what WriteText prints. The fast paths avoid boxing; their
// order mirrors fmt.handleMethods: Formatter, then error, then Stringer.
func appendRendered(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "<nil>"...)
	case int:
		return model.AppendDecimal(b, int64(x))
	case int64:
		return model.AppendDecimal(b, x)
	case model.Time:
		return model.AppendDecimal(b, int64(x))
	case model.ProcessID:
		return append(b, x.String()...)
	case bool:
		return strconv.AppendBool(b, x)
	case fmt.Formatter:
		return fmt.Appendf(b, "%v", v)
	case error:
		return append(b, x.Error()...)
	case fmt.Stringer:
		return append(b, x.String()...)
	default:
		return fmt.Append(b, v)
	}
}
