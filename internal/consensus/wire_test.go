package consensus

import (
	"fmt"
	"testing"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// vecOf builds the dense vector with the given entries.
func vecOf(entries map[model.ProcessID]Value) valueVec {
	var v valueVec
	for q, val := range entries {
		v.set(q, val)
	}
	return v
}

// sameVec reports whether two vectors hold the same entries.
func sameVec(a, b valueVec) bool {
	if !a.keys.Equal(b.keys) {
		return false
	}
	for _, q := range a.keys.Slice() {
		if a.vals[q] != b.vals[q] {
			return false
		}
	}
	return true
}

// The JSON literals below are EncodeWire's output at the commit before
// the payloads went from maps to dense vectors: the live wire format
// must not notice the change.

func TestWireFloodRoundTrip(t *testing.T) {
	t.Parallel()
	in := &sfFloodMsg{Round: 3, Delta: vecOf(map[model.ProcessID]Value{1: "v1", 4: "v4", 12: "x y"})}
	b, err := EncodeWire(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"kind":"flood","round":3,"vals":{"1":"v1","12":"x y","4":"v4"}}`; string(b) != want {
		t.Fatalf("EncodeWire = %s, want %s", b, want)
	}
	out, err := DecodeWire(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(*sfFloodMsg)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	if got.Round != 3 || !sameVec(got.Delta, in.Delta) {
		t.Fatalf("round trip = %+v", got)
	}
	if b, _ := EncodeWire(&sfFloodMsg{Round: 1}); string(b) != `{"kind":"flood","round":1}` {
		t.Fatalf("empty delta encodes as %s", b)
	}
}

func TestWireVectorRoundTrip(t *testing.T) {
	t.Parallel()
	in := &sfVectorMsg{Vector: vecOf(map[model.ProcessID]Value{2: "x", 10: "⊥"})}
	b, err := EncodeWire(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"kind":"vector","vals":{"10":"⊥","2":"x"}}`; string(b) != want {
		t.Fatalf("EncodeWire = %s, want %s", b, want)
	}
	out, err := DecodeWire(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(*sfVectorMsg)
	if !ok || !sameVec(got.Vector, in.Vector) {
		t.Fatalf("round trip = %+v (%T)", out, out)
	}
}

// TestPayloadsRenderLikeMaps pins the text the trace digest sees to
// fmt's rendering of the map-based payload values the pointers to dense
// vectors replaced.
func TestPayloadsRenderLikeMaps(t *testing.T) {
	t.Parallel()
	entries := map[model.ProcessID]Value{1: "v1", 4: "v4", 12: "x y"}
	type mapFlood struct {
		Round int
		Delta map[model.ProcessID]Value
	}
	type mapVector struct{ Vector map[model.ProcessID]Value }
	for _, tc := range []struct{ got, want any }{
		{&sfFloodMsg{Round: 3, Delta: vecOf(entries)}, mapFlood{3, entries}},
		{&sfFloodMsg{Round: 1}, mapFlood{Round: 1}},
		{&sfVectorMsg{Vector: vecOf(entries)}, mapVector{entries}},
	} {
		if got, want := fmt.Sprint(tc.got), fmt.Sprint(tc.want); got != want {
			t.Errorf("renders %q, the map form %q", got, want)
		}
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	t.Parallel()
	if _, err := EncodeWire(42); err == nil {
		t.Error("encoded a non-payload")
	}
	bad := [][]byte{
		[]byte("not json"),
		[]byte(`{"kind":"warp"}`),
		[]byte(`{"kind":"flood","vals":{"zero":"v"}}`),
		[]byte(`{"kind":"flood","vals":{"0":"v"}}`),
		[]byte(`{"kind":"flood","vals":{"65":"v"}}`),
	}
	for _, b := range bad {
		if _, err := DecodeWire(b); err == nil {
			t.Errorf("DecodeWire(%s) accepted", b)
		}
	}
}

// TestWireRoundTripPreservesSimulatorBehaviour encodes and decodes a
// payload and checks the automaton absorbs the decoded copy exactly
// like the original — the property the live runtime depends on.
func TestWireRoundTripPreservesSimulatorBehaviour(t *testing.T) {
	t.Parallel()
	spawn := func() *sfProc {
		return SFlooding{Proposals: Proposals{2: "v2"}}.Spawn(2, 5).(*sfProc)
	}
	orig := &sfFloodMsg{Round: 1, Delta: vecOf(map[model.ProcessID]Value{1: "v1"})}
	b, err := EncodeWire(orig)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeWire(b)
	if err != nil {
		t.Fatal(err)
	}

	a, c := spawn(), spawn()
	a.absorb(&sim.Message{From: 1, Payload: orig})
	c.absorb(&sim.Message{From: 1, Payload: decoded})
	if a.v[1] != "v1" || a.v[1] != c.v[1] || !a.known.Equal(c.known) || !a.received[1].Equal(c.received[1]) {
		t.Fatalf("decoded copy diverged: %v vs %v", a, c)
	}
}

// TestWireKeysBeyondNAreIgnored delivers frames that DecodeWire accepts
// (process keys ≤ model.MaxProcesses) but that name processes outside
// an n = 5 system, from inside and outside it: the dense state must
// neither index out of range nor let the strangers into the decision.
func TestWireKeysBeyondNAreIgnored(t *testing.T) {
	t.Parallel()
	// p2 hears only from p1 (p3..p5 are suspected) through the four
	// flood rounds and the vector round; extra is spliced into every
	// frame's vals.
	run := func(extra string) (Value, *sfProc) {
		p := SFlooding{Proposals: Proposals{2: "v2"}}.Spawn(2, 5).(*sfProc)
		susp := model.NewProcessSet(3, 4, 5)
		deliver := func(from model.ProcessID, frame string) sim.Actions {
			payload, err := DecodeWire([]byte(frame))
			if err != nil {
				t.Fatalf("DecodeWire(%s): %v", frame, err)
			}
			return p.Step(&sim.Message{From: from, Payload: payload}, susp, 0)
		}
		p.Step(nil, susp, 0)
		for r := 1; r <= 4; r++ {
			deliver(9, fmt.Sprintf(`{"kind":"flood","round":%d,"vals":{"3":"stranger"}}`, r))
			deliver(1, fmt.Sprintf(`{"kind":"flood","round":%d,"vals":{"1":"v1"%s}}`, r, extra))
		}
		deliver(64, `{"kind":"vector","vals":{"2":"v2"}}`)
		last := deliver(1, fmt.Sprintf(`{"kind":"vector","vals":{"1":"v1","2":"v2"%s}}`, extra))
		if len(last.Events) != 1 {
			t.Fatalf("extra=%q: no decision after the vector round: %v", extra, p)
		}
		return last.Events[0].Value.(Value), p
	}
	want, clean := run("")
	got, hostile := run(`,"6":"evil","64":"evil"`)
	if got != want || want != "v1" {
		t.Errorf("decision %q with out-of-range keys, %q without, want v1", got, want)
	}
	if !hostile.known.Equal(clean.known) || !hostile.known.Equal(model.NewProcessSet(1, 2)) {
		t.Errorf("known = %v with out-of-range keys, %v without", hostile.known, clean.known)
	}
}
