package scenario

import (
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// TestBusyRespawnAllocBudgets pins one warm n = 64 busy run on a reused
// RunContext: Respawn hands every busy process back, so a seed of the
// sweep allocates none of its 64 processes again. It is not parallel:
// AllocsPerRun counts every allocation in the process, the other
// tests' included.
func TestBusyRespawnAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budget holds for the build the benchmark measures")
	}
	// The measured 3 plus one; before Respawn the 64 processes made 67.
	const budget = 4 // allocations of one warm reused-context run
	rc := sim.NewRunContext()
	seed := int64(0)
	warm := testing.AllocsPerRun(20, func() {
		seed++
		// One seed of the n = 64 sweep benchmark's body.
		_, err := rc.Execute(sim.Config{
			N: 64, Automaton: BusyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(64).MustCrash(7, 300).MustCrash(21, 900),
			Horizon: 2000, Seed: seed, Policy: &sim.RandomFairPolicy{},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("reused context, n = 64 busy: %.0f allocations", warm)
	if warm > budget {
		t.Errorf("a warm reused-context n = 64 busy run allocates %.0f times, budget %d", warm, budget)
	}
}
