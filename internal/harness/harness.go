// Package harness is the parallel scenario-sweep engine behind the
// experiment tables and the wide property sweeps: a Scenario describes
// a family of runs that differ only by seed, and Stream folds the
// seeded runs across a worker pool sized to GOMAXPROCS.
//
// Determinism is the contract (DESIGN.md §5): every run builds its own
// pattern, policy and hooks from the scenario's factories, each run is
// a pure function of its seed, and results come back ordered by seed —
// so a sweep at parallelism 32 is byte-identical to the same sweep at
// parallelism 1. The experiments lean on that to keep E-tables
// reproducible while saturating the machine, and the race detector
// (go test -race ./internal/harness) keeps the isolation honest.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// Scenario is a family of simulator runs differing only by seed: the
// system, the detector, the automaton, the fault plan and per-run
// factories for the stateful pieces.
//
// Factories, not values: a sim.Policy is stateful per run, the engine
// extends failure patterns in place, and AfterStep hooks usually close
// over per-run state. Sharing any of those across concurrently
// executing runs would be both a data race and a determinism bug, so
// the scenario constructs fresh ones for every seed. The shared fields
// (Automaton, Oracle, Faults) are safe by the package contracts:
// automata spawn per-process state, oracles are pure, and the engine
// only reads the fault plan.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// ConfigDigest, when non-empty, is the digest of the declarative
	// configuration the scenario was built from (scenario.Spec's
	// ConfigDigest). It is part of a streaming checkpoint's campaign
	// identity, so two campaigns that share a Name but differ in any
	// configured detail refuse to resume from each other's checkpoints.
	// Stream refuses to checkpoint a scenario without one; scenarios
	// that are never checkpointed may leave it empty.
	ConfigDigest string
	// N is the system size |Ω|.
	N int
	// Automaton is the algorithm under test (shared; Spawn is per-run).
	Automaton sim.Automaton
	// Oracle is the failure detector (shared; pure by contract).
	Oracle fd.Oracle
	// OracleFor, when non-nil, supplies a per-seed oracle instead of
	// Oracle — for noisy detectors whose noise stream is keyed on the
	// sweep seed (the ◇S experiments). Must be safe for concurrent use.
	OracleFor func(seed int64) fd.Oracle
	// Horizon bounds each run.
	Horizon model.Time
	// Pattern returns a fresh failure pattern for one run; nil means
	// failure-free. Never return a shared *FailurePattern: the engine
	// mutates it.
	Pattern func() *model.FailurePattern
	// Policy returns a fresh scheduling policy for one run; nil means
	// FairPolicy.
	Policy func() sim.Policy
	// Faults are the link faults of every run (sim.Config.Faults),
	// their lottery seeded from the run's RNG: the same seed replays the
	// same losses, delays and partitions. Nil means reliable links.
	Faults *sim.LinkFaults
	// StopWhen returns a fresh stop predicate for one run; nil means
	// run to the horizon.
	StopWhen func() func(*sim.Trace) bool
	// AfterStep returns a fresh per-step hook for one run; nil means
	// none. Adversarial scenarios close over per-run state here.
	AfterStep func() func(*sim.Run, *sim.EventRecord)
	// Quiesce ends each run with sim.StopQuiescent once nothing can
	// happen any more (sim.Config.Quiesce). It never fires without a
	// Steady oracle or with an AfterStep hook.
	Quiesce bool
}

// Config assembles the sim.Config of the scenario's run at the given
// seed, instantiating every per-run factory.
func (sc Scenario) Config(seed int64) sim.Config {
	cfg := sim.Config{
		N:         sc.N,
		Automaton: sc.Automaton,
		Oracle:    sc.Oracle,
		Horizon:   sc.Horizon,
		Seed:      seed,
		Faults:    sc.Faults,
		Quiesce:   sc.Quiesce,
	}
	if sc.OracleFor != nil {
		cfg.Oracle = sc.OracleFor(seed)
	}
	if sc.Pattern != nil {
		cfg.Pattern = sc.Pattern()
	}
	if sc.Policy != nil {
		cfg.Policy = sc.Policy()
	}
	if sc.StopWhen != nil {
		cfg.StopWhen = sc.StopWhen()
	}
	if sc.AfterStep != nil {
		cfg.AfterStep = sc.AfterStep()
	}
	return cfg
}

// Run executes the scenario's run at one seed.
func (sc Scenario) Run(seed int64) Result {
	tr, err := sim.Execute(sc.Config(seed))
	return Result{Seed: seed, Trace: tr, Err: err}
}

// RunIn executes the scenario's run at one seed in a reused run
// context: the streaming hot path. The result's trace is valid only
// until the context's next run — consumers fold it immediately
// (Reducer.Fold) and retain summaries, never the trace.
func (sc Scenario) RunIn(rc *sim.RunContext, seed int64) Result {
	tr, err := rc.Execute(sc.Config(seed))
	return Result{Seed: seed, Trace: tr, Err: err}
}

// Result is the outcome of one seeded run.
type Result struct {
	Seed  int64
	Trace *sim.Trace
	Err   error
}

// SeedRange is the half-open seed interval [From, To) of a sweep.
type SeedRange struct {
	From, To int64
}

// Seeds is the range {0, 1, ..., n-1}.
func Seeds(n int) SeedRange { return SeedRange{From: 0, To: int64(n)} }

// Validate rejects ranges a sweep cannot honestly execute: an inverted
// range (To < From — almost always a caller arithmetic bug; an empty
// sweep is spelled To == From) and a range whose seed count does not
// fit in int, which would otherwise be silently narrowed by Count and
// misbehave downstream. Every sweep entry point (SeedMap, Stream,
// Reduce) validates its range before running anything.
func (sr SeedRange) Validate() error {
	if sr.To < sr.From {
		return fmt.Errorf("harness: inverted seed range [%d, %d)", sr.From, sr.To)
	}
	// uint64 subtraction is exact for To ≥ From even when the int64
	// difference would overflow (e.g. From = MinInt64, To = MaxInt64).
	if n := uint64(sr.To) - uint64(sr.From); n > uint64(math.MaxInt) {
		return fmt.Errorf("harness: seed range [%d, %d) holds %d seeds, more than fit in int", sr.From, sr.To, n)
	}
	return nil
}

// Count returns the number of seeds in the range. It is meaningful
// only for ranges that pass Validate; the sweep entry points enforce
// that before counting.
func (sr SeedRange) Count() int {
	if sr.To <= sr.From {
		return 0
	}
	return int(uint64(sr.To) - uint64(sr.From))
}

// SeedMap is the one retained fan-out: job runs once per seed on the
// worker pool (≤ 0 workers means GOMAXPROCS), and slot i of the result
// belongs to seed From+i alone, whatever the worker count. It serves
// runs that are not plain Scenario runs (the Lemma 4.1 adversary, the
// §6.3 collapse witness, the QoS estimator grid); Scenario campaigns
// fold through Stream/Reduce. job must be safe for concurrent use and
// deterministic in its seed.
func SeedMap[T any](seeds SeedRange, workers int, job func(seed int64) T) []T {
	if err := seeds.Validate(); err != nil {
		// No error return in the retained-sweep API; an invalid range is
		// a caller bug, reported loudly instead of misbehaving.
		panic(err)
	}
	count := seeds.Count()
	if count == 0 {
		return nil
	}
	out := make([]T, count)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		for i := range out {
			out[i] = job(seeds.From + int64(i))
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				out[i] = job(seeds.From + int64(i))
			}
		}()
	}
	wg.Wait()
	return out
}
