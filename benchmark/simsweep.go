package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

const (
	// sweepSeedsPerSecond sizes the campaign: the seed count is this
	// constant times -seconds, so two commits do the same work (≈350
	// seeds/s on the 2-core reference box).
	sweepSeedsPerSecond = 280
	// sweepParitySeeds is the slice of the campaign the set-up gate
	// folds at one worker and at GOMAXPROCS workers.
	sweepParitySeeds = 48
	sweepHorizon     = 2000
	// sweepChunk is the stretch of seeds timed between two ticks of the
	// reference kernel; the metric is the median chunk of some sixty.
	sweepChunk = sweepSeedsPerSecond / 4
)

// simCounters are the counts the traced wrappers keep at the sim.Policy
// and fd.Oracle boundaries; atomics because the oracle is shared by
// every worker of a sweep.
type simCounters struct {
	policyNs, oracleNs, oracleCalls, stableCalls atomic.Int64
}

// timedPolicy forwards a sim.Policy and accumulates the time spent in
// it. RandomFairPolicy implements no optional engine interface, so the
// wrapper hides nothing.
type timedPolicy struct {
	inner sim.Policy
	c     *simCounters
}

func (p *timedPolicy) NextProcess(alive []model.ProcessID, t model.Time, r *rand.Rand) model.ProcessID {
	t0 := time.Now()
	out := p.inner.NextProcess(alive, t, r)
	p.c.policyNs.Add(time.Since(t0).Nanoseconds())
	return out
}

func (p *timedPolicy) PickMessage(q model.ProcessID, pending []*sim.Message, t model.Time, r *rand.Rand) int {
	t0 := time.Now()
	out := p.inner.PickMessage(q, pending, t, r)
	p.c.policyNs.Add(time.Since(t0).Nanoseconds())
	return out
}

// timedOracle forwards an fd.Steady oracle, so the engine keeps its
// fast path, and counts the real queries the fast path lets through.
type timedOracle struct {
	inner fd.Steady
	c     *simCounters
}

func (o timedOracle) Name() string    { return o.inner.Name() }
func (o timedOracle) Realistic() bool { return o.inner.Realistic() }

func (o timedOracle) Output(f *model.FailurePattern, p model.ProcessID, t model.Time) model.ProcessSet {
	t0 := time.Now()
	out := o.inner.Output(f, p, t)
	o.c.oracleNs.Add(time.Since(t0).Nanoseconds())
	o.c.oracleCalls.Add(1)
	return out
}

func (o timedOracle) StableUntil(f *model.FailurePattern, p model.ProcessID, t model.Time) model.Time {
	t0 := time.Now()
	out := o.inner.StableUntil(f, p, t)
	o.c.oracleNs.Add(time.Since(t0).Nanoseconds())
	o.c.stableCalls.Add(1)
	return out
}

// sweepScenario is the flagship n=64 body of cmd/bench. With counters
// it is the same scenario seen through the timing wrappers.
func sweepScenario(c *simCounters) harness.Scenario {
	sc := harness.Scenario{
		Name: "bench-n64", N: 64,
		Automaton: scenario.BusyAutomaton{},
		Oracle:    fd.Perfect{Delay: 2},
		Horizon:   sweepHorizon,
		Pattern: func() *model.FailurePattern {
			return model.MustPattern(64).MustCrash(7, 300).MustCrash(21, 900)
		},
		Policy: func() sim.Policy { return &sim.RandomFairPolicy{} },
	}
	if c != nil {
		sc.Oracle = timedOracle{inner: fd.Perfect{Delay: 2}, c: c}
		sc.Policy = func() sim.Policy { return &timedPolicy{inner: &sim.RandomFairPolicy{}, c: c} }
	}
	return sc
}

// foldTimes is what the traced reducer learns about one worker's runs.
type foldTimes struct {
	runNs, digestNs, foldNs int64
	last                    time.Time // end of the previous Fold
}

// tracedSweepReducer wraps harness.SweepReducer for a one-worker
// sweep: the gap between two Fold calls is one run (engine plus the
// harness's per-seed bookkeeping), the inner fold is timed around the
// call, and Trace.Digest is then timed on its own. The fold digests
// first, on a cold trace; timing the second digest makes digest_us a
// floor and fold_us, the difference, a ceiling.
func tracedSweepReducer(env *runEnv, parent int, ft *foldTimes) harness.Reducer[harness.SweepStats] {
	inner := harness.SweepReducer()
	return harness.Reducer[harness.SweepStats]{
		New: inner.New,
		Fold: func(acc harness.SweepStats, r harness.Result) harness.SweepStats {
			enter := time.Now()
			env.tr.add(sweepName, "sim.run", parent, ft.last, enter)
			ft.runNs += enter.Sub(ft.last).Nanoseconds()
			acc = inner.Fold(acc, r)
			folded := time.Now()
			env.tr.add(sweepName, "harness.fold", parent, enter, folded)
			ft.foldNs += folded.Sub(enter).Nanoseconds()
			if r.Trace != nil {
				_ = r.Trace.Digest()
			}
			ft.last = time.Now()
			env.tr.add(sweepName, "sim.digest", parent, folded, ft.last)
			ft.digestNs += ft.last.Sub(folded).Nanoseconds()
			return acc
		},
		Merge: inner.Merge,
	}
}

const sweepName = "sim-sweep-n64"

// pacedReducer forwards red and ends a lap of pace after every chunk
// folds. At one worker the fold runs on the goroutine that runs the
// seeds, so the kernel's ticks and the chunks take turns.
func pacedReducer(red harness.Reducer[harness.SweepStats], chunk int, pace *refPacer) harness.Reducer[harness.SweepStats] {
	folds := 0
	fold := red.Fold
	red.Fold = func(acc harness.SweepStats, r harness.Result) harness.SweepStats {
		acc = fold(acc, r)
		if folds++; folds%chunk == 0 {
			pace.lap()
		}
		return acc
	}
	return red
}

func runSimSweep(env *runEnv) (*result, error) {
	res := newResult(sweepName)
	seeds := sweepSeedsPerSecond * env.seconds
	from := env.seed * 1_000_000
	campaign := harness.SeedRange{From: from, To: from + int64(seeds)}
	parity := harness.SeedRange{From: from, To: from + sweepParitySeeds}

	// Set-up: build the scenario and hold it to the determinism
	// contract on a slice of the campaign before spending the full run.
	var sc harness.Scenario
	parityOK := true
	setup, _ := setupSeconds(func() error {
		sc = sweepScenario(nil)
		one := harness.Reduce(sc, parity, 1, harness.SweepReducer())
		all := harness.Reduce(sc, parity, env.procs, harness.SweepReducer())
		parityOK = parityOK && one.Digest == all.Digest && one.Errors == 0
		return nil
	}, nil)
	res.check(parityOK, "set-up gate: %d-seed digest differs between workers=1 and workers=%d", sweepParitySeeds, env.procs)

	sweep := func(sc harness.Scenario, workers int, red harness.Reducer[harness.SweepStats]) (harness.SweepStats, section) {
		var st harness.SweepStats
		sec := measure(func() { st = harness.Reduce(sc, campaign, workers, red) })
		return st, sec
	}

	// The campaign is a multiple of sweepChunk, so the laps cover it all.
	root := env.tr.begin(sweepName, "sweep.untraced", -1)
	pace := newRefPacer(seeds / sweepChunk)
	var st harness.SweepStats
	sec := measure(func() {
		pace.start()
		st = harness.Reduce(sc, campaign, 1, pacedReducer(harness.SweepReducer(), sweepChunk, pace))
	})
	env.tr.end(root)
	wall := pace.worked()
	res.checkN(seeds, int(st.Errors)+max(0, seeds-int(st.Runs)), "run errored or was not folded (%d folded, %d errors, want %d clean)", st.Runs, st.Errors, seeds)
	res.wall = sec.wall
	res.e2e["setup_s"] = setup
	res.e2e["seeds_per_s"] = sweepChunk / pace.refLap(1)
	res.e2e["allocs_per_seed"] = float64(sec.mallocs) / float64(seeds)
	res.e2e["alloc_kb_per_seed"] = float64(sec.bytes) / 1024 / float64(seeds)
	// One worker is this workload's one node: CPU beyond 1 is the
	// runtime's own (collector, scheduler).
	res.e2e["cpu_s_per_node_s"] = sec.cpu / sec.wall
	res.note("%d seeds [%d, %d) n=64 horizon=%d workers=1 wall=%.3fs (%.1f seeds per wall second; the metric is the median %d-seed chunk in reference seconds, and the host ran %.2fx slower than the reference) digest=%s",
		seeds, campaign.From, campaign.To, sweepHorizon, wall, float64(seeds)/wall, sweepChunk, pace.slowdown(), st.Digest)

	if env.tr == nil {
		return res, nil
	}

	// Traced pass: same campaign through the wrappers, one worker.
	var c simCounters
	ft := &foldTimes{}
	root = env.tr.begin(sweepName, "sweep.traced", -1)
	ft.last = time.Now()
	tst, tsec := sweep(sweepScenario(&c), 1, tracedSweepReducer(env, root, ft))
	env.tr.end(root)
	res.check(tst.Digest == st.Digest, "traced campaign digest %s differs from untraced %s", tst.Digest, st.Digest)
	steps := float64(tst.Events)
	n := float64(seeds)
	childNs := float64(c.policyNs.Load() + c.oracleNs.Load())
	res.layer["sim.run_us"] = (float64(ft.runNs) - childNs) / n / 1e3
	res.layer["sim.steps_per_seed"] = steps / n
	res.layer["sim.step_ns"] = (float64(ft.runNs) - childNs) / steps
	res.layer["sim.policy_ns_per_step"] = float64(c.policyNs.Load()) / steps
	res.layer["sim.digest_us"] = float64(ft.digestNs) / n / 1e3
	queries := float64(c.oracleCalls.Load())
	if queries > 0 {
		res.layer["fd.oracle_ns_per_query"] = float64(c.oracleNs.Load()) / (queries + float64(c.stableCalls.Load()))
	}
	res.layer["fd.queries_per_step"] = queries / steps
	// SweepReducer's fold computes the run's digest itself, so its own
	// work is what remains after one digest's worth of time.
	res.layer["harness.fold_us"] = float64(ft.foldNs-ft.digestNs) / n / 1e3
	res.layer["trace_overhead_ratio"] = tsec.wall / wall

	// Parallel pass: the measurement BENCH_PR8 and BENCH_PR10 recorded
	// at workers=1 twice.
	root = env.tr.begin(sweepName, "sweep.parallel", -1)
	pst, psec := sweep(sc, env.procs, harness.SweepReducer())
	env.tr.end(root)
	res.check(pst.Digest == st.Digest, "campaign digest at workers=%d %s differs from workers=1 %s", env.procs, pst.Digest, st.Digest)
	res.layer["harness.par_speedup"] = wall / psec.wall
	res.layer["harness.workers"] = float64(env.procs)
	res.note("parallel: workers=%d wall=%.3fs speedup=%.2fx digest equal=%v", env.procs, psec.wall, wall/psec.wall, pst.Digest == st.Digest)

	return res, nil
}
