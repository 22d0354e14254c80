package experiments

import (
	"runtime"
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
// automata, not the engine's arenas. E1's, E3's and E4's budgets are
// the counts measured once the context handed their processes back to
// Respawn, plus at most 10 %, and "before" the counts just before;
// abcast, which does not respawn, keeps the budget measured when the
// protocol wrappers moved onto sim.Mux and S-flooding onto a recycling
// consensus.Host (E3 and E4 were 11 022 and 2 747 before the protocol
// layer first went allocation-lean).
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
		{"E1-sflooding-2crashes", scenarioOf(e1), 43, 6},
		{"E3-reduction-2crashes", scenarioOf(e3), 148, 16},
		{"E4-trb-2waves", scenarioOf(e4), 218, 69},
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

// TestHostedAllocBudgets holds the hosted protocols to what a warmed
// RunContext saves them now that it hands each process back to
// Respawn, with its multiplexer, host and slab chunks: a run of E3's
// reduction and one of E4's TRB on a warm context must allocate at most
// a tenth of the bytes of the same run on a fresh one. Measured (Go
// 1.24, linux/amd64): E3 940 000 bytes fresh, 880 warm; E4 470 000
// fresh, 4 350 warm.
func TestHostedAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budgets hold for the build the benchmark measures")
	}
	e3 := baseSpec("E3")
	e3.Crashes = crashSpecs(2, 30, 90, 150, 210)
	e4 := baseSpec("E4")
	e4.Crashes = crashSpecs(2, 1, 60, 120, 180)
	for _, tc := range []struct {
		name string
		sc   harness.Scenario
	}{
		{"E3-reduction-2crashes", scenario.MustBuild(e3)},
		{"E4-trb-2crashes", scenario.MustBuild(e4)},
	} {
		// bytes is what one run at seed 7 allocates, over five runs on
		// the contexts next returns.
		bytes := func(next func() *sim.RunContext) uint64 {
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if r := tc.sc.RunIn(next(), 7); r.Err != nil {
					t.Fatalf("%s: %v", tc.name, r.Err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / runs
		}
		fresh := bytes(sim.NewRunContext)
		warm := sim.NewRunContext()
		if r := tc.sc.RunIn(warm, 6); r.Err != nil {
			t.Fatalf("%s: %v", tc.name, r.Err)
		}
		reused := bytes(func() *sim.RunContext { return warm })
		t.Logf("%s: %d bytes/run on a fresh context, %d on a warm one", tc.name, fresh, reused)
		if reused*10 > fresh {
			t.Errorf("%s: a warm-context run allocates %d bytes, more than a tenth of a fresh one's %d", tc.name, reused, fresh)
		}
	}
}
