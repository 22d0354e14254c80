package experiments

import (
	"runtime"
	"testing"

	"realisticfd/internal/abcast"
	"realisticfd/internal/core"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// TestProtocolAllocBudgets holds the protocol layer to what it
// allocates in one run on a warmed RunContext, so what is counted is the
// automata, not the engine's arenas. The budgets of the protocols that
// respawn are the counts measured on a warm context plus at most 10 %,
// and "before" the counts before the change that last lowered them: E1
// before its processes respawned; E3 and E4 before S-flooding boxed its
// decisions from a cache and TRB kept its values and sent them from a
// slab; E8's rotating coordinator before it respawned; and E2's
// adversary before it ran on the caller's context (its two runs then
// took a fresh one each). abcast, which does
// not respawn, keeps the budget measured when the protocol wrappers
// moved onto sim.Mux and S-flooding onto a recycling consensus.Host (E3
// and E4 were 11 022 and 2 747 before the protocol layer first went
// allocation-lean).
func TestProtocolAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budgets hold for the build the benchmark measures")
	}
	scenarioRun := func(sc harness.Scenario) func(*sim.RunContext) error {
		return func(rc *sim.RunContext) error { return sc.RunIn(rc, 7).Err }
	}
	specRun := func(s scenario.Spec) func(*sim.RunContext) error { return scenarioRun(scenario.MustBuild(s)) }
	e1 := baseSpec("E1") // standalone S-flooding
	e1.Crashes = crashSpecs(2, 30, 90, 150, 210)
	e3 := baseSpec("E3") // reduction, 40 instances of S-flooding
	e3.Crashes = crashSpecs(2, 30, 90, 150, 210)
	e4 := baseSpec("E4") // TRB
	e4.Protocol.Waves = 2
	e4.Crashes = crashSpecs(2, 1, 60, 120, 180)
	e8 := baseSpec("E8-rotating") // ◇S rotating coordinator, as E8 runs it
	e8.Crashes = crashSpecs(2, 5, 8, 11, 14)
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
	adversary := func(rc *sim.RunContext) error { // E2's R1 and R3 at seed 3
		_, err := core.BuildDisagreement(rc, core.AdversaryConfig{Seed: 3})
		return err
	}

	for _, tc := range []struct {
		name           string
		run            func(*sim.RunContext) error
		before, budget float64 // allocations per run
	}{
		{"E1-sflooding-2crashes", specRun(e1), 43, 6},
		{"E2-adversary-seed3", adversary, 229, 23},
		{"E3-reduction-2crashes", specRun(e3), 14, 6},
		{"E4-trb-2waves", specRun(e4), 62, 21},
		{"E8-rotating-2crashes", scenarioRun(quiescentScenario(e8)), 177, 7},
		{"abcast-6instances", scenarioRun(ab), 682, 365},
	} {
		rc := sim.NewRunContext()
		run := func() {
			if err := tc.run(rc); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
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
// a tenth of the bytes of the same run on a fresh one, and E4's at
// most the 3 211 bytes measured once its S-flooding instances boxed
// their decisions from a cache and TRB kept its values and sent them
// from a slab, plus 10 %. Measured (Go 1.24, linux/amd64): E3 942 000
// bytes fresh, 732 warm; E4 473 000 fresh, 3 211 warm (4 342 before).
func TestHostedAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budgets hold for the build the benchmark measures")
	}
	e3 := baseSpec("E3")
	e3.Crashes = crashSpecs(2, 30, 90, 150, 210)
	e4 := baseSpec("E4")
	e4.Crashes = crashSpecs(2, 1, 60, 120, 180)
	for _, tc := range []struct {
		name   string
		sc     harness.Scenario
		budget uint64 // bytes of a warm run; 0: a tenth of a fresh one's only
	}{
		{"E3-reduction-2crashes", scenario.MustBuild(e3), 0},
		{"E4-trb-2crashes", scenario.MustBuild(e4), 3532},
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
		if tc.budget > 0 && reused > tc.budget {
			t.Errorf("%s: a warm-context run allocates %d bytes, budget %d", tc.name, reused, tc.budget)
		}
	}
}
