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
		if int(q) >= len(v.vals) {
			v.vals = append(v.vals, make([]Value, int(q)+1-len(v.vals))...)
		}
		v.keys = v.keys.Add(q)
		v.vals[q] = val
	}
	return v
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

// TestAbsorbIgnoresKeysBeyondN delivers payloads that name processes
// outside an n = 5 system, from inside and outside it: the dense state
// must neither index out of range nor let the strangers into the
// decision.
func TestAbsorbIgnoresKeysBeyondN(t *testing.T) {
	t.Parallel()
	// p2 hears only from p1 (p3..p5 are suspected) through the four
	// flood rounds and the vector round; extra is added to every
	// payload p1 sends.
	run := func(extra map[model.ProcessID]Value) (Value, *sfProc) {
		p := SFlooding{Proposals: Proposals{2: "v2"}}.Spawn(2, 5).(*sfProc)
		susp := model.NewProcessSet(3, 4, 5)
		with := func(entries map[model.ProcessID]Value) valueVec {
			all := map[model.ProcessID]Value{}
			for q, v := range entries {
				all[q] = v
			}
			for q, v := range extra {
				all[q] = v
			}
			return vecOf(all)
		}
		deliver := func(from model.ProcessID, payload any) sim.Actions {
			return p.Step(&sim.Message{From: from, Payload: payload}, susp, 0)
		}
		p.Step(nil, susp, 0)
		for r := 1; r <= 4; r++ {
			deliver(9, &sfFloodMsg{Round: r, Delta: vecOf(map[model.ProcessID]Value{3: "stranger"})})
			deliver(1, &sfFloodMsg{Round: r, Delta: with(map[model.ProcessID]Value{1: "v1"})})
		}
		deliver(64, &sfVectorMsg{Vector: vecOf(map[model.ProcessID]Value{2: "v2"})})
		last := deliver(1, &sfVectorMsg{Vector: with(map[model.ProcessID]Value{1: "v1", 2: "v2"})})
		if len(last.Events) != 1 {
			t.Fatalf("extra=%v: no decision after the vector round: %v", extra, p)
		}
		return last.Events[0].Value.(Value), p
	}
	want, clean := run(nil)
	got, hostile := run(map[model.ProcessID]Value{6: "evil", 64: "evil"})
	if got != want || want != "v1" {
		t.Errorf("decision %q with out-of-range keys, %q without, want v1", got, want)
	}
	if !hostile.known.Equal(clean.known) || !hostile.known.Equal(model.NewProcessSet(1, 2)) {
		t.Errorf("known = %v with out-of-range keys, %v without", hostile.known, clean.known)
	}
}
