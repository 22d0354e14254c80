package sim_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
	"realisticfd/internal/sim/tracetest"
)

// These tests are in package sim_test because they import the test
// decoder, internal/sim/tracetest, which imports sim. The busy
// broadcast workload is therefore scenario.BusyAutomaton, the exported
// twin of this directory's noisyAutomaton.

// payloadAutomaton broadcasts a different payload shape per process, so
// that every branch of the encoder's rendering switch is hashed as
// fmt's %v prints it.
type payloadAutomaton struct{}

type payloadProc struct {
	self model.ProcessID
	n    int
	sent bool
}

type structPayload struct {
	Round int
	Est   string
}

type stringerPayload struct{ tag string }

func (sp stringerPayload) String() string { return "tagged:" + sp.tag }

func (payloadAutomaton) Spawn(self model.ProcessID, n int) sim.Process {
	return &payloadProc{self: self, n: n}
}

func (p *payloadProc) Step(in *sim.Message, _ model.ProcessSet, t model.Time) sim.Actions {
	var acts sim.Actions
	if !p.sent {
		p.sent = true
		var payload any
		switch int(p.self) % 8 {
		case 0:
			payload = "plain string"
		case 1:
			payload = 42
		case 2:
			payload = int64(-7)
		case 3:
			payload = model.Time(900)
		case 4:
			payload = p.self // model.ProcessID, a Stringer
		case 5:
			payload = true
		case 6:
			payload = structPayload{Round: 3, Est: "v1"}
		default:
			payload = stringerPayload{tag: "x"}
		}
		acts.Sends = sim.Broadcast(p.n, payload)
		acts.Events = []sim.ProtocolEvent{{Kind: sim.KindViewChange, Instance: int(t), Value: payload}}
	}
	return acts
}

// benchShape is the body of the repository benchmark's sim-sweep-n64
// workload: n=64, two scripted crashes, horizon 2000, the random fair
// policy and the busy automaton. Its text rendering is 940 132 bytes
// at seed 1 000 000; TestCanonicalBudgetN64 holds the canonical
// encoding to 40 000.
func benchShape(seed int64) sim.Config {
	return sim.Config{
		N: 64, Automaton: scenario.BusyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
		Pattern: model.MustPattern(64).MustCrash(7, 300).MustCrash(21, 900),
		Horizon: 2000, Seed: seed, Policy: &sim.RandomFairPolicy{},
	}
}

// vectorTraces are the two hand-built traces whose encodings
// TestCanonicalVectors spells out. Between them: a λ step, a received
// message that is a back-reference and one that is not, a run of two
// sends and a run of one after a gap in the IDs, a protocol event,
// PrevSameProc −1 and 0, a nil and a non-nil pattern, an undelivered
// buffer written as the complement and one written in full (an injected,
// SentBy −1 message), and an ID and a payload length that each take two
// varint bytes.
func vectorTraces() (first, second *sim.Trace) {
	m1 := &sim.Message{ID: 1, From: 1, To: 2, SentAt: 1, SentBy: 0, Payload: "hi"}
	m2 := &sim.Message{ID: 2, From: 1, To: 3, SentAt: 1, SentBy: 0, Payload: "hi"}
	m3 := &sim.Message{ID: 5, From: 1, To: 4, SentAt: 3, SentBy: 2, Payload: 7}
	stray := &sim.Message{ID: 9, From: 3, To: 1, SentAt: 0, SentBy: -1}
	first = &sim.Trace{
		N: 4, Stopped: sim.StopHorizon,
		Events: []sim.EventRecord{
			{Index: 0, P: 1, T: 1, PrevSameProc: -1, Sends: []*sim.Message{m1, m2},
				Events: []sim.ProtocolEvent{{Kind: sim.KindDecide, Instance: 0, Value: "v"}}},
			{Index: 1, P: 2, T: 2, FD: model.NewProcessSet(3), PrevSameProc: -1, Msg: m1},
			{Index: 2, P: 1, T: 3, PrevSameProc: 0, Msg: stray, Sends: []*sim.Message{m3}},
		},
		Undelivered: []*sim.Message{m2, m3},
	}
	second = &sim.Trace{
		N: 4, Stopped: sim.StopAllCrashed,
		Pattern: model.MustPattern(4).MustCrash(2, 5),
		Events: []sim.EventRecord{
			{Index: 0, P: 3, T: 1, FD: model.NewProcessSet(2), PrevSameProc: -1},
		},
		Undelivered: []*sim.Message{
			{ID: 300, From: 4, To: 3, SentAt: 0, SentBy: -1, Payload: strings.Repeat("x", 130)},
		},
	}
	return first, second
}

// fromHex decodes the concatenation of its arguments, spaces ignored.
func fromHex(t *testing.T, fields ...string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(strings.Join(fields, ""), " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCanonicalVectors pins the format itself, byte for byte: the
// golden files pin behaviour through the text rendering and would not
// notice a changed encoding. A change here is a new DigestVersion.
func TestCanonicalVectors(t *testing.T) {
	t.Parallel()
	first, second := vectorTraces()
	for _, v := range []struct {
		name string
		tr   *sim.Trace
		want []byte
	}{
		{"first", first, fromHex(t,
			"66 64 74 72 61 63 65 2f 33", // "fdtrace/3"
			"04",                         // N = 4
			"01",                         // Stopped = StopHorizon
			"00",                         // nil pattern
			"03",                         // three events
			// event 0
			"00",          // Index 0
			"01",          // P = p1
			"01",          // T = 1
			"00",          // FD = {}
			"01",          // PrevSameProc = −1 (zigzag)
			"00",          // received λ
			"02",          // two sends
			"00 02 02",    // one run: ID 1 (the expected 1, + 0), To p2, two sends
			"02 68 69",    // payload "hi", for both
			"01",          // one protocol event
			"02 00 01 76", // Kind decide (1, zigzag), Instance 0, value "v"
			// event 1
			"01 02 02", // Index 1, P = p2, T = 2
			"04",       // FD = {p3}: bit 2 of the word
			"01",       // PrevSameProc = −1
			"02 00",    // received Events[0].Sends[0]: 2 + j, then k
			"00 00",    // no sends, no protocol events
			// event 2
			"02 01 03",          // Index 2, P = p1, T = 3
			"00",                // FD = {}
			"00",                // PrevSameProc = 0
			"01",                // received in full:
			"09 03 01 00",       // ID 9, From p3, To p1, SentAt 0
			"01",                // SentBy = −1
			"05 3c 6e 69 6c 3e", // nil payload, rendered "<nil>"
			"01",                // one send
			"04 04 01",          // a run: ID 5 (the expected 3, + 2 zigzag), To p4, one send
			"01 37",             // payload 7, rendered "7"
			"00",                // no protocol events
			// undelivered: Events[0].Sends[1], Events[2].Sends[0]
			"00", // the complement
		)},
		{"second", second, fromHex(t,
			"66 64 74 72 61 63 65 2f 33", // "fdtrace/3"
			"04",                         // N = 4
			"04",                         // Stopped = StopAllCrashed
			"05",                         // pattern over n = 4 (n + 1)
			"00 06 00 00",                // p2 crashes at 5 (t + 1), the others never
			"01",                         // one event
			"00 03 01",                   // Index 0, P = p3, T = 1
			"02",                         // FD = {p2}
			"01",                         // PrevSameProc = −1
			"00 00 00",                   // λ, no sends, no protocol events
			"02",                         // one undelivered message (count + 1),
			"01",                         // in full:
			"ac 02",                      // ID 300
			"04 03 00",                   // From p4, To p3, SentAt 0
			"01",                         // SentBy = −1
			"82 01",                      // payload of 130 bytes
			strings.Repeat("78", 130),    // "xxx…"
		)},
	} {
		if got := v.tr.AppendCanonical(nil); !bytes.Equal(got, v.want) {
			t.Errorf("%s vector: encoding changed\n got %x\nwant %x", v.name, got, v.want)
		}
		if err := tracetest.RoundTrip(v.tr); err != nil {
			t.Errorf("%s vector: %v", v.name, err)
		}
	}
}

// TestEncodeMatchesReference holds the canonical encoder to the
// reference rendering, Trace.WriteText, by round trip (see tracetest):
// on engine-built traces that exercise every payload fast path plus the
// fmt fallback, under loss (a long undelivered tail) and crashes, and at
// the benchmark's own size; and on hand-built traces the engine would
// never produce, where back-references must give way to full records.
// The two golden grids make the same check on every pinned run. Each
// trace must also encode byte for byte as the reference encoder does.
func TestEncodeMatchesReference(t *testing.T) {
	t.Parallel()
	for name, cfg := range map[string]sim.Config{
		"payload shapes, lossy n=8": {
			N: 8, Automaton: payloadAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(8).MustCrash(3, 20),
			Horizon: 300, Seed: 5, Policy: &sim.RandomFairPolicy{},
			Faults: &sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 30}}},
		},
		"busy n=6": {
			N: 6, Automaton: scenario.BusyAutomaton{}, Oracle: fd.Perfect{},
			Horizon: 400, Seed: 9, Policy: &sim.RandomFairPolicy{},
		},
		"benchmark shape n=64": benchShape(1_000_000),
		"lossy n=64": {
			N: 64, Automaton: scenario.BusyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(64).MustCrash(7, 300),
			Horizon: 1500, Seed: 11, Policy: &sim.RandomFairPolicy{},
			Faults: &sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 35}}},
		},
	} {
		tr, err := sim.Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.N == 64 && len(tr.Undelivered) < 1000 {
			t.Fatalf("%s: only %d undelivered messages; the case is meant to have a long tail", name, len(tr.Undelivered))
		}
		if err := tracetest.RoundTrip(tr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		matchesReference(t, name, tr)
	}

	for name, tr := range handBuiltTraces() {
		if err := tracetest.RoundTrip(tr); err != nil {
			t.Errorf("hand-built, %s: %v", name, err)
		}
		matchesReference(t, "hand-built, "+name, tr)
	}
}

// matchesReference requires the encoder to write tr exactly as the
// pre-fusion encoder, sim.RefAppendCanonical, does: a round trip proves
// that the bytes decode, this that the one-pass encoder kept them.
func matchesReference(t *testing.T, name string, tr *sim.Trace) {
	t.Helper()
	if got, want := tr.AppendCanonical(nil), sim.RefAppendCanonical(tr, nil); !bytes.Equal(got, want) {
		t.Errorf("%s: encoding differs from the reference encoder's\n got %x\nwant %x", name, got, want)
	}
}

// handBuiltTraces are shapes only a test can make: each defeats one
// clause of the back-reference rule, or puts a value where the engine
// never would.
func handBuiltTraces() map[string]*sim.Trace {
	sent := func(id int64, by int, from model.ProcessID, at model.Time) *sim.Message {
		return &sim.Message{ID: id, From: from, To: 2, SentAt: at, SentBy: by, Payload: "m"}
	}
	event := func(i int, p model.ProcessID, rcv *sim.Message, sends ...*sim.Message) sim.EventRecord {
		return sim.EventRecord{Index: i, P: p, T: model.Time(i + 1), PrevSameProc: -1, Msg: rcv, Sends: sends}
	}
	out := map[string]*sim.Trace{"empty": {}}

	// Two sends share ID 5; each is received. An ID alone would not say
	// which, a position does.
	a, b := sent(5, 0, 1, 1), sent(5, 1, 3, 2)
	out["duplicate IDs"] = &sim.Trace{N: 4, Events: []sim.EventRecord{
		event(0, 1, nil, a), event(1, 3, nil, b), event(2, 2, b), event(3, 2, a),
	}}

	// IDs 1 and 3 in one step: the second is not where its ID says.
	c, d := sent(1, 0, 1, 1), sent(3, 0, 1, 1)
	out["IDs not consecutive"] = &sim.Trace{N: 4, Events: []sim.EventRecord{
		event(0, 1, nil, c, d), event(1, 2, d), event(2, 2, c),
	}}

	// SentBy names the receiving event itself (e), a later one (f, which
	// is a plain back-reference once undelivered), one past the end (g)
	// and one that sent nothing (h).
	e, f, g, h := sent(1, 0, 2, 1), sent(2, 2, 1, 3), sent(3, 7, 1, 1), sent(4, 1, 1, 2)
	out["SentBy astray"] = &sim.Trace{N: 4, Events: []sim.EventRecord{
		event(0, 2, e, e), event(1, 1, f), event(2, 1, g, f), event(3, 2, h),
	}, Undelivered: []*sim.Message{g, f, f, h}}

	// The very object its sending step holds, but it names another
	// sender and time than that step's.
	i, j := sent(1, 0, 3, 1), sent(2, 0, 1, 9)
	out["From and SentAt astray"] = &sim.Trace{N: 4, Events: []sim.EventRecord{
		event(0, 1, nil, i, j), event(1, 2, i), event(2, 2, j),
	}}

	// One message received twice and still undelivered; values the
	// engine never writes; renderings full of the text's punctuation.
	k := sent(1, 0, 1, 1)
	k.Payload = "a) snd=(2 >3 b)\nu=(7 1>2 @1 c"
	out["odd values"] = &sim.Trace{
		N: -3, Stopped: -1, Pattern: model.MustPattern(5).MustCrash(5, 0).MustCrash(1, 7),
		Events: []sim.EventRecord{
			event(0, 1, nil, k),
			{Index: -5, P: 0, T: -1, FD: model.AllProcesses(64), PrevSameProc: 1 << 40, Msg: k,
				Events: []sim.ProtocolEvent{{Kind: -2, Instance: -1, Value: structPayload{1, strings.Repeat("long", 50)}}}},
			event(2, 2, k, &sim.Message{ID: -1, To: -7, Payload: error(nil)}),
		},
		Undelivered: []*sim.Message{k, {ID: 1 << 62, From: 64, To: 1, SentAt: model.NoCrash, SentBy: -1}},
	}
	return out
}

// TestCanonicalBudgetN64 holds the benchmark shape's encoding to its
// byte budget: a broadcast is one run and the undelivered buffer one
// byte, so it is ≈ 28 000 bytes where fdtrace/2 wrote 226 324.
func TestCanonicalBudgetN64(t *testing.T) {
	t.Parallel()
	tr, err := sim.Execute(benchShape(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if size := len(tr.AppendCanonical(nil)); size > 40_000 {
		t.Errorf("canonical encoding is %d bytes, over the 40 000 budget", size)
	}
}

// tag is a string type of its own: "m" and tag("m") render alike.
type tag string

// labelled is a payload that renders as its label; two of them with one
// label render alike but are different objects.
type labelled struct{ label string }

func (l *labelled) String() string { return l.label }

// TestCompactFormsFallBack builds traces that each defeat one clause of
// the two compact forms — a run of sends, the complement byte for the
// undelivered buffer — and checks that the encoder takes the explicit
// form there, and only there, and still round-trips. The control is one
// step that broadcasts to p2…p4, none of it received: one run, and the
// complement.
func TestCompactFormsFallBack(t *testing.T) {
	t.Parallel()
	shared := &labelled{"m"}
	var boxedStruct, boxedString any = structPayload{1, "v"}, "m"
	sends := func(ids []int64, tos []model.ProcessID, payloads ...any) []*sim.Message {
		out := make([]*sim.Message, len(ids))
		for i := range ids {
			out[i] = &sim.Message{ID: ids[i], From: 1, To: tos[i], SentAt: 1, SentBy: 0, Payload: payloads[i%len(payloads)]}
		}
		return out
	}
	// trace is one step of p1 with the given sends, a λ step of p2, and
	// the undelivered buffer undelivered(sends), by default the sends in
	// (To, send order).
	trace := func(ss []*sim.Message, undelivered func(ss []*sim.Message) []*sim.Message) *sim.Trace {
		tr := &sim.Trace{N: 4, Events: []sim.EventRecord{
			{Index: 0, P: 1, T: 1, PrevSameProc: -1, Sends: ss},
			{Index: 1, P: 2, T: 2, PrevSameProc: -1},
		}}
		if undelivered == nil {
			tr.Undelivered = slices.SortedStableFunc(slices.Values(ss), func(a, b *sim.Message) int { return int(a.To - b.To) })
		} else {
			tr.Undelivered = undelivered(ss)
		}
		return tr
	}
	ids, tos := []int64{1, 2, 3}, []model.ProcessID{2, 3, 4}

	for _, c := range []struct {
		name       string
		tr         *sim.Trace
		runs       int
		complement bool
	}{
		{"control", trace(sends(ids, tos, "m"), nil), 1, true},
		{"one pointer payload", trace(sends(ids, tos, shared), nil), 1, true},
		{"equal strings", trace(sends(ids, tos, "m", strings.Clone("m")), nil), 1, true},
		{"gap in the IDs", trace(sends([]int64{1, 2, 4}, tos, "m"), nil), 2, true},
		{"skipped destination", trace(sends(ids, []model.ProcessID{1, 3, 4}, "m"), nil), 2, true},
		{"destination past N", trace(sends(ids, []model.ProcessID{3, 4, 5}, "m"), nil), 2, false},
		{"destination p0", trace(sends(ids, []model.ProcessID{0, 1, 2}, "m"), nil), 2, false},
		{"payloads alike, objects not", trace(sends(ids, tos, shared, &labelled{"m"}), nil), 3, true},
		{"struct payloads", trace(sends(ids, tos, structPayload{1, "v"}), nil), 3, true},
		{"payload types differ", trace(sends(ids, tos, "m", shared), nil), 3, true},
		// One box shared by every send: identity alone must not make a
		// struct a run, and it does make a string one.
		{"one boxed struct", trace(sends(ids, tos, boxedStruct), nil), 3, true},
		{"one boxed string", trace(sends(ids, tos, boxedString), nil), 1, true},
		// Renderings agree, payload types do not.
		{"string, tag, string", trace(sends(ids, tos, "m", tag("m")), nil), 3, true},
		{"complement reordered", trace(sends(ids, tos, "m"), func(ss []*sim.Message) []*sim.Message {
			return []*sim.Message{ss[1], ss[0], ss[2]}
		}), 1, false},
		{"complement missing a send", trace(sends(ids, tos, "m"), func(ss []*sim.Message) []*sim.Message {
			return ss[:2]
		}), 1, false},
		{"complement holding a copy", trace(sends(ids, tos, "m"), func(ss []*sim.Message) []*sim.Message {
			cp := *ss[1]
			return []*sim.Message{ss[0], &cp, ss[2]}
		}), 1, false},
		{"complement and an injected message", trace(sends(ids, tos, "m"), func(ss []*sim.Message) []*sim.Message {
			return append(slices.Clone(ss), &sim.Message{ID: 9, From: 3, To: 4, SentBy: -1, Payload: "m"})
		}), 1, false},
		{"a send astray from its step", trace(sends(ids, tos, "m"), func(ss []*sim.Message) []*sim.Message {
			ss[2].SentAt = 7
			return ss
		}), 1, false},
	} {
		checkForms(t, c.name, c.tr, c.runs, c.complement)
	}

	// p2 receives the first send: the complement is the other two, and
	// a buffer that still holds the received one is not it.
	received := func(hold bool) *sim.Trace {
		tr := trace(sends(ids, tos, "m"), nil)
		tr.Events[1].Msg = tr.Events[0].Sends[0]
		if !hold {
			tr.Undelivered = tr.Undelivered[1:]
		}
		return tr
	}
	checkForms(t, "complement after a receive", received(false), 1, true)
	checkForms(t, "complement holding a received send", received(true), 1, false)

	// sim.AppendOthers from p2 is two runs, around the sender.
	var others []sim.Send
	others = sim.AppendOthers(others, 4, 2, shared)
	ss := make([]*sim.Message, len(others))
	for i, o := range others {
		ss[i] = &sim.Message{ID: int64(i + 1), From: 1, To: o.To, SentAt: 1, Payload: o.Payload}
	}
	checkForms(t, "AppendOthers", trace(ss, nil), 2, true)
}

// checkForms requires tr to round-trip, to encode as the reference
// encoder does, and to be written in the given number of runs, with or
// without the complement byte.
func checkForms(t *testing.T, name string, tr *sim.Trace, runs int, complement bool) {
	t.Helper()
	if err := tracetest.RoundTrip(tr); err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	matchesReference(t, name, tr)
	l, err := tracetest.LayoutOf(tr.AppendCanonical(nil))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if l.Runs != runs || l.Complement != complement {
		t.Errorf("%s: %d runs, complement %v; want %d, %v", name, l.Runs, l.Complement, runs, complement)
	}
}

// TestDigestConflatesWhatTextConflates: nil and the string "<nil>"
// render alike, so they hash alike, as they always have.
func TestDigestConflatesWhatTextConflates(t *testing.T) {
	t.Parallel()
	build := func(v any) *sim.Trace {
		return &sim.Trace{N: 4, Events: []sim.EventRecord{{
			Sends:  []*sim.Message{{ID: 1, To: 2, Payload: v}},
			Events: []sim.ProtocolEvent{{Kind: sim.KindDeliver, Value: v}},
		}}}
	}
	if a, b := build(nil).Digest(), build("<nil>").Digest(); a != b {
		t.Errorf("nil and \"<nil>\" payloads digest differently: %s vs %s", a[:16], b[:16])
	}
	if a, b := build(7).Digest(), build("8").Digest(); a == b {
		t.Error("payloads 7 and \"8\" share a digest")
	}
}

// TestBackReferenceSoundness attacks the one place the encoding says
// less than the text: a received or undelivered message written as a
// position. Each mutation replaces such a message by a copy with one
// field changed — the copy is not the object its sending step holds, so
// the record must be written in full — and both the text and the digest
// must notice. The control is the copy with nothing changed, which must
// render as the original does.
func TestBackReferenceSoundness(t *testing.T) {
	t.Parallel()
	base, err := sim.Execute(sim.Config{
		N: 6, Automaton: payloadAutomaton{}, Oracle: fd.Perfect{Delay: 2},
		Horizon: 200, Seed: 3, Policy: &sim.RandomFairPolicy{},
		Faults: &sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 30}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rcv := slices.IndexFunc(base.Events, func(ev sim.EventRecord) bool { return ev.Msg != nil })
	if rcv < 0 || len(base.Undelivered) < 2 {
		t.Fatalf("base run has no received message or only %d undelivered", len(base.Undelivered))
	}
	text := func(tr *sim.Trace) string {
		var b bytes.Buffer
		if err := tr.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	baseText, baseDigest := text(base), base.Digest()

	// mutated returns base with the received message (slot −1) or
	// Undelivered[slot] replaced by an edited copy.
	type edit struct {
		slot int
		fn   func(*sim.Message)
	}
	mutated := func(edits ...edit) *sim.Trace {
		tr := *base
		tr.Events = slices.Clone(base.Events)
		tr.Undelivered = slices.Clone(base.Undelivered)
		for _, e := range edits {
			at := &tr.Events[rcv].Msg
			if e.slot >= 0 {
				at = &tr.Undelivered[e.slot]
			}
			cp := **at
			e.fn(&cp)
			*at = &cp
		}
		return &tr
	}

	control := mutated(edit{-1, func(*sim.Message) {}})
	if text(control) != baseText {
		t.Error("control: an unchanged copy of the received message renders differently")
	}
	if err := tracetest.RoundTrip(control); err != nil {
		t.Errorf("control: %v", err)
	}

	u0, u1 := base.Undelivered[0].ID, base.Undelivered[1].ID
	for name, edits := range map[string][]edit{
		"To":      {{-1, func(m *sim.Message) { m.To++ }}},
		"From":    {{-1, func(m *sim.Message) { m.From++ }}},
		"SentAt":  {{-1, func(m *sim.Message) { m.SentAt++ }}},
		"SentBy":  {{-1, func(m *sim.Message) { m.SentBy++ }}},
		"ID":      {{-1, func(m *sim.Message) { m.ID++ }}},
		"payload": {{-1, func(m *sim.Message) { m.Payload = "forged" }}},

		"undelivered To":      {{0, func(m *sim.Message) { m.To++ }}},
		"undelivered From":    {{0, func(m *sim.Message) { m.From++ }}},
		"undelivered SentAt":  {{0, func(m *sim.Message) { m.SentAt++ }}},
		"undelivered payload": {{0, func(m *sim.Message) { m.Payload = "forged" }}},
		"undelivered IDs swapped": {
			{0, func(m *sim.Message) { m.ID = u1 }},
			{1, func(m *sim.Message) { m.ID = u0 }},
		},
	} {
		tr := mutated(edits...)
		if text(tr) == baseText {
			t.Errorf("%s: the text rendering missed the change", name)
		}
		if tr.Digest() == baseDigest {
			t.Errorf("%s: the digest missed the change", name)
		}
		if err := tracetest.RoundTrip(tr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		matchesReference(t, name, tr)
	}
}

// TestDigestAllocBudgets pins the sweep's per-seed cost: on a warmed
// run context a digest allocates the string it returns and nothing else
// (no hasher, no Sum, no pattern rendering), and the encoding into a
// reused buffer allocates nothing.
func TestDigestAllocBudgets(t *testing.T) {
	rc := sim.NewRunContext()
	tr, err := rc.Execute(benchShape(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Digest() // grows the retained scratch buffer
	if got := testing.AllocsPerRun(5, func() { _ = tr.Digest() }); got != 1 {
		t.Errorf("Digest() on a warmed context: %.0f allocations, want 1", got)
	}
	buf := tr.AppendCanonical(nil)
	if got := testing.AllocsPerRun(5, func() { buf = tr.AppendCanonical(buf[:0]) }); got != 0 {
		t.Errorf("AppendCanonical into a reused buffer: %.0f allocations, want 0", got)
	}
}

// othersAutomaton broadcasts through sim.AppendOthers, on its first
// step and on every fifth message it receives, one pointer payload per
// broadcast: two runs that share a pointer, around the sender.
type othersAutomaton struct{}

type othersProc struct {
	self    model.ProcessID
	n, seen int
	started bool
	sends   []sim.Send
}

func (othersAutomaton) Spawn(self model.ProcessID, n int) sim.Process {
	return &othersProc{self: self, n: n}
}

func (p *othersProc) Step(in *sim.Message, _ model.ProcessSet, _ model.Time) sim.Actions {
	if in != nil {
		p.seen++
	}
	if p.started && (in == nil || p.seen%5 != 0) {
		return sim.Actions{}
	}
	p.started = true
	label := &labelled{fmt.Sprintf("%v#%d", p.self, p.seen)}
	p.sends = sim.AppendOthers(p.sends[:0], p.n, p.self, label)
	return sim.Actions{Sends: p.sends}
}

// FuzzDigestRoundTrip holds the encoder to the reference rendering over
// system size, horizon, seed and loss rate: number widths cross every
// varint length, back-references reach every distance, and three
// automata alternate string, mixed-type and shared pointer payloads.
// Under loss, dropped sends join the complement.
func FuzzDigestRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint16(300), int64(5), uint8(30))
	f.Add(uint8(60), uint16(1999), int64(1_000_000), uint8(0))
	f.Add(uint8(60), uint16(1200), int64(12), uint8(35))
	f.Add(uint8(12), uint16(0), int64(-3), uint8(99))
	f.Add(uint8(28), uint16(700), int64(77), uint8(10))
	f.Add(uint8(60), uint16(1500), int64(6), uint8(0))
	f.Add(uint8(9), uint16(400), int64(10), uint8(40))

	f.Fuzz(func(t *testing.T, nRaw uint8, horizonRaw uint16, seed int64, dropRaw uint8) {
		n := 4 + int(nRaw%61)                      // 4..64
		horizon := model.Time(1 + horizonRaw%2000) // 1..2000
		var auto sim.Automaton = scenario.BusyAutomaton{}
		switch {
		case seed&1 == 1:
			auto = payloadAutomaton{}
		case seed&2 == 2:
			auto = othersAutomaton{}
		}
		var faults *sim.LinkFaults
		if drop := int(dropRaw % 60); drop > 0 {
			faults = &sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: drop}}}
		}
		victim := model.ProcessID(1 + uint64(seed)%uint64(n))
		tr, err := sim.Execute(sim.Config{
			N: n, Automaton: auto, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(n).MustCrash(victim, 1+horizon/3),
			Horizon: horizon, Seed: seed, Policy: &sim.RandomFairPolicy{}, Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tracetest.RoundTrip(tr); err != nil {
			t.Fatal(err)
		}
		matchesReference(t, "fuzzed run", tr)
	})
}

// BenchmarkDigestN64 is one Trace.Digest of the repository benchmark's
// sim-sweep-n64 body: the per-seed cost the ledger reports as
// sim.digest_us. MB/s is over the canonical encoding, whose size is the
// bytes/trace column (TestCanonicalBudgetN64 holds it to its budget).
func BenchmarkDigestN64(b *testing.B) {
	tr, err := sim.Execute(benchShape(1_000_000))
	if err != nil {
		b.Fatal(err)
	}
	size := len(tr.AppendCanonical(nil))
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Digest()
	}
	b.ReportMetric(float64(size), "bytes/trace")
}
