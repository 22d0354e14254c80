package experiments

import (
	"testing"

	"realisticfd/internal/abcast"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// TestProtocolAllocBudgets holds the protocol layer to what it
// allocates in one run on a warmed RunContext, so what is counted is the
// automata, not the engine's arenas. Each budget is the count measured
// when the protocol wrappers moved onto sim.Mux and S-flooding onto a
// recycling consensus.Host, plus at most 10 %; "before" is the count
// just before that change (E3 and E4 were 11 022 and 2 747 before the
// protocol layer first went allocation-lean).
func TestProtocolAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budgets hold for the build the benchmark measures")
	}
	scenarioOf := func(s scenario.Spec) harness.Scenario { return scenario.MustBuild(s) }
	e1 := baseSpec("E1") // standalone S-flooding
	e1.Crashes = crashSpecs(2, 30, 90, 150, 210)
	e3 := baseSpec("E3") // reduction, 40 instances of S-flooding
	e3.Crashes = crashSpecs(2, 30, 90, 150, 210)
	e4 := baseSpec("E4") // TRB
	e4.Protocol.Waves = 2
	e4.Crashes = crashSpecs(2, 1, 60, 120, 180)
	ab := harness.Scenario{ // the abcast run of the golden protocol grid
		Name: "abcast", N: expN,
		Automaton: abcast.Atomic{
			ToBroadcast: map[model.ProcessID][]string{
				1: {"a0", "a1"}, 2: {"b0"}, 3: {"c0", "c1"}, 4: {"d0"}, 5: {"e0"},
			},
			MaxInstances: 6,
		},
		Oracle:  fd.Perfect{Delay: 2},
		Horizon: 3000,
		Pattern: func() *model.FailurePattern { return model.MustPattern(expN).MustCrash(2, 40) },
		Policy:  func() sim.Policy { return &sim.RandomFairPolicy{} },
	}

	for _, tc := range []struct {
		name           string
		sc             harness.Scenario
		before, budget float64 // allocations per run
	}{
		{"E1-sflooding-2crashes", scenarioOf(e1), 55, 47},
		{"E3-reduction-2crashes", scenarioOf(e3), 1692, 162},
		{"E4-trb-2waves", scenarioOf(e4), 546, 238},
		{"abcast-6instances", ab, 682, 365},
	} {
		rc := sim.NewRunContext()
		run := func() {
			if r := tc.sc.RunIn(rc, 7); r.Err != nil {
				t.Fatalf("%s: %v", tc.name, r.Err)
			}
		}
		run() // warm the context's arenas
		got := testing.AllocsPerRun(10, run)
		t.Logf("%s: %.0f allocs/run (before: %.0f)", tc.name, got, tc.before)
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs/run, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
