package experiments

import (
	"testing"

	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// TestProtocolAllocBudgets holds the protocol layer to a quarter of
// the allocations it made before it went allocation-lean (dense
// S-flooding state, slab-carved envelopes and views, reused Sends):
// one run on a warmed RunContext, so what is counted is the automata,
// not the engine's arenas. The "before" counts were taken with this
// test at the commit that added golden_protocol_traces.txt; the counts
// after it were 1 692 and 546.
func TestProtocolAllocBudgets(t *testing.T) {
	e3 := baseSpec("E3") // reduction, 40 instances of S-flooding
	e3.Crashes = crashSpecs(2, 30, 90, 150, 210)
	e4 := baseSpec("E4") // TRB
	e4.Protocol.Waves = 2
	e4.Crashes = crashSpecs(2, 1, 60, 120, 180)

	for _, tc := range []struct {
		name   string
		spec   scenario.Spec
		before float64 // allocations per run before
	}{
		{"E3-reduction-2crashes", e3, 11022},
		{"E4-trb-2waves", e4, 2747},
	} {
		sc := scenario.MustBuild(tc.spec)
		rc := sim.NewRunContext()
		run := func() {
			if r := sc.RunIn(rc, 7); r.Err != nil {
				t.Fatalf("%s: %v", tc.name, r.Err)
			}
		}
		run() // warm the context's arenas
		got := testing.AllocsPerRun(10, run)
		t.Logf("%s: %.0f allocs/run (before: %.0f)", tc.name, got, tc.before)
		if got > tc.before/4 {
			t.Errorf("%s: %.0f allocs/run, budget %.0f (a quarter of %.0f)", tc.name, got, tc.before/4, tc.before)
		}
	}
}
