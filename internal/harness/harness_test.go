package harness

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"realisticfd/internal/consensus"
	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// testScenario is a consensus scenario with crashes, a randomized
// policy and (optionally) link faults — enough moving parts that any
// cross-run state sharing would show up as a digest mismatch or a data
// race.
func testScenario(faults *sim.LinkFaults) Scenario {
	return Scenario{
		Name:      "sflooding",
		N:         5,
		Automaton: consensus.SFlooding{Proposals: consensus.DistinctProposals(5)},
		Oracle:    fd.Perfect{Delay: 2},
		Horizon:   20000,
		Pattern: func() *model.FailurePattern {
			return model.MustPattern(5).MustCrash(2, 40)
		},
		Policy:   func() sim.Policy { return &sim.RandomFairPolicy{} },
		Faults:   faults,
		StopWhen: func() func(*sim.Trace) bool { return sim.CorrectDecided(0) },
	}
}

// retained is sc.Run as a SeedMap job: each run on a fresh context, so
// the results keep their traces.
func retained(sc Scenario) func(*sim.RunContext, int64) Result {
	return func(_ *sim.RunContext, seed int64) Result { return sc.Run(seed) }
}

// digests sweeps sc over seeds [0, 8) on the given number of workers,
// each run on its worker's context, and returns the run digests in
// seed order.
func digests(t *testing.T, sc Scenario, workers int) []string {
	return SeedMap(Seeds(8), workers, func(rc *sim.RunContext, seed int64) string {
		r := sc.RunIn(rc, seed)
		if r.Err != nil {
			t.Errorf("seed %d: %v", r.Seed, r.Err)
			return ""
		}
		return r.Trace.Digest()
	})
}

// TestSweepParallelEqualsSequential is the harness's core guarantee:
// the same sweep at parallelism 1 and at high parallelism produces
// byte-identical traces in the same (seed) order, and the same as runs
// on fresh contexts.
func TestSweepParallelEqualsSequential(t *testing.T) {
	t.Parallel()
	for _, faults := range []*sim.LinkFaults{
		nil,
		// {p1, p3} cut off from the rest of Ω = {p1..p5}.
		{DropSteps: []sim.RateStep{{Pct: 15}}, DelaySteps: []sim.DelayStep{{Max: 4}}, Cuts: []sim.EdgeCut{{
			Edges: []sim.Edge{{A: 1, B: 2}, {A: 1, B: 4}, {A: 1, B: 5}, {A: 2, B: 3}, {A: 3, B: 4}, {A: 3, B: 5}},
			From:  50, Until: 500,
		}}},
	} {
		sc := testScenario(faults)
		seq := digests(t, sc, 1)
		par := digests(t, sc, 2*runtime.GOMAXPROCS(0))
		if len(seq) != len(par) {
			t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("faults=%v seed %d: parallel trace differs from sequential", faults, i)
			}
			if fresh := sc.Run(int64(i)).Trace.Digest(); seq[i] != fresh {
				t.Fatalf("faults=%v seed %d: worker-context trace differs from a fresh context's", faults, i)
			}
		}
	}
}

// TestSweepOrderAndSeeds checks results come back slotted by seed for
// an arbitrary range.
func TestSweepOrderAndSeeds(t *testing.T) {
	t.Parallel()
	results := SeedMap(SeedRange{From: 100, To: 108}, 0, retained(testScenario(nil)))
	if len(results) != 8 {
		t.Fatalf("got %d results, want 8", len(results))
	}
	for i, r := range results {
		if r.Seed != int64(100+i) {
			t.Fatalf("slot %d holds seed %d", i, r.Seed)
		}
	}
}

// TestMapSummarizesInWorkers checks that SeedMap's per-run summaries,
// computed inside the workers, line up with the seeds and that the
// sweep actually decided consensus in every run.
func TestMapSummarizesInWorkers(t *testing.T) {
	t.Parallel()
	type summary struct {
		seed    int64
		decided bool
	}
	sc := testScenario(nil)
	sums := SeedMap(Seeds(10), 0, func(rc *sim.RunContext, seed int64) summary {
		r := sc.RunIn(rc, seed)
		if r.Err != nil {
			t.Errorf("seed %d: %v", r.Seed, r.Err)
			return summary{seed: r.Seed}
		}
		return summary{seed: r.Seed, decided: r.Trace.Stopped == sim.StopCondition}
	})
	for i, s := range sums {
		if s.seed != int64(i) {
			t.Fatalf("slot %d holds seed %d", i, s.seed)
		}
		if !s.decided {
			t.Fatalf("seed %d: consensus did not decide", s.seed)
		}
	}
}

// TestAfterStepFactoryIsolatesRuns reproduces the E6 adversary shape:
// the AfterStep factory must give every run its own closure state, so
// each run crashes p1 exactly once after its first decision.
func TestAfterStepFactoryIsolatesRuns(t *testing.T) {
	t.Parallel()
	sc := testScenario(nil)
	sc.Pattern = func() *model.FailurePattern { return model.MustPattern(5) }
	sc.AfterStep = func() func(*sim.Run, *sim.EventRecord) {
		crashed := false // per-run state
		return func(r *sim.Run, ev *sim.EventRecord) {
			if crashed || ev.P != 1 {
				return
			}
			for _, pe := range ev.Events {
				if pe.Kind == sim.KindDecide {
					crashed = true
					_ = r.Crash(1)
				}
			}
		}
	}
	for _, r := range SeedMap(Seeds(8), 0, retained(sc)) {
		if r.Err != nil {
			t.Fatalf("seed %d: %v", r.Seed, r.Err)
		}
		if _, crashed := r.Trace.Pattern.CrashTime(1); !crashed {
			// p1 may legitimately never decide under some schedules,
			// but with a perfect detector and no other crashes it
			// always does here.
			t.Fatalf("seed %d: adversarial hook never fired", r.Seed)
		}
	}
}

// TestScenarioPassesFaults checks Config hands the fault plan to the
// engine as Config.Faults and the scenario policy over unwrapped.
func TestScenarioPassesFaults(t *testing.T) {
	t.Parallel()
	lf := &sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 10}}}
	cfg := testScenario(lf).Config(3)
	if cfg.Faults != lf {
		t.Fatalf("Faults = %v, want the scenario's plan", cfg.Faults)
	}
	if _, ok := cfg.Policy.(*sim.RandomFairPolicy); !ok {
		t.Fatalf("policy is %T, want *sim.RandomFairPolicy", cfg.Policy)
	}
	if cfg.Seed != 3 {
		t.Fatalf("seed = %d, want 3", cfg.Seed)
	}
}

// TestSeedMap pins the generic fan-out: ordering, empty ranges, the
// worker count not leaking into results, and a context for every job
// that no other job holds at the same time.
func TestSeedMap(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 3, 0} {
		var mu sync.Mutex
		busy := map[*sim.RunContext]bool{}
		sq := SeedMap(SeedRange{From: 5, To: 15}, workers, func(rc *sim.RunContext, seed int64) int64 {
			mu.Lock()
			shared := rc == nil || busy[rc]
			busy[rc] = true
			mu.Unlock()
			if shared {
				t.Errorf("workers=%d, seed %d: job got context %p, nil or in use by another job", workers, seed, rc)
			}
			time.Sleep(time.Millisecond) // let the other workers' jobs overlap this one
			mu.Lock()
			delete(busy, rc)
			mu.Unlock()
			return seed * seed
		})
		if len(sq) != 10 {
			t.Fatalf("workers=%d: %d results, want 10", workers, len(sq))
		}
		for i, v := range sq {
			seed := int64(5 + i)
			if v != seed*seed {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, seed*seed)
			}
		}
	}
	if got := SeedMap(SeedRange{From: 4, To: 4}, 8, func(*sim.RunContext, int64) int { return 1 }); got != nil {
		t.Fatalf("empty range returned %v", got)
	}
}
