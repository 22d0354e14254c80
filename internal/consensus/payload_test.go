package consensus

import (
	"fmt"
	"testing"

	"realisticfd/internal/model"
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
