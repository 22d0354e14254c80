package consensus

import (
	"fmt"
	"math/rand"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// TestSFloodingRandomSweep is the safety-net property test: over many
// random (pattern, seed) configurations, the full uniform
// specification must hold. This is the E1/E3 substrate exercised far
// beyond the curated scenarios. Each seed derives its own private RNG,
// so the sweep fans out across the harness worker pool with results
// identical to a sequential run.
func TestSFloodingRandomSweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("random sweep")
	}
	errs := harness.SeedMap(harness.Seeds(60), 0, func(_ *sim.RunContext, seed int64) error {
		rng := rand.New(rand.NewSource(2024 + seed))
		n := 4 + rng.Intn(4) // 4..7
		pat := model.MustPattern(n)
		// Each process crashes with probability 1/3 at a time in
		// [1, 400) — leaving possibly zero correct processes is fine
		// for safety; keep at least one for termination checking.
		var crashed int
		for p := 1; p <= n; p++ {
			if crashed < n-1 && rng.Intn(3) == 0 {
				pat.MustCrash(model.ProcessID(p), model.Time(1+rng.Intn(400)))
				crashed++
			}
		}
		props := DistinctProposals(n)
		tr, err := sim.Execute(sim.Config{
			N: n, Automaton: SFlooding{Proposals: props},
			Oracle:  fd.Perfect{Delay: model.Time(rng.Intn(5))},
			Pattern: pat, Horizon: 30000, Seed: rng.Int63(),
			Policy:   &sim.RandomFairPolicy{},
			StopWhen: sim.CorrectDecided(0),
		})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if tr.Stopped != sim.StopCondition {
			return fmt.Errorf("seed %d: did not terminate (n=%d pattern=%v)", seed, n, pat)
		}
		o, err := ExtractOutcome(tr, 0)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if err := o.CheckUniformSpec(pat, props); err != nil {
			return fmt.Errorf("seed %d (n=%d, %v): %w", seed, n, pat, err)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSFloodingFaultyLinkSweep puts the uniform specification under a
// delaying, partitioning — but eventually delivering — network: extra
// latency up to 8 ticks plus a partition that heals at t=300. Loss-free
// faults preserve condition (5) of §2.4, so the full spec (termination
// included) must still hold in every run.
func TestSFloodingFaultyLinkSweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("faulty sweep")
	}
	props := DistinctProposals(5)
	sc := harness.Scenario{
		Name: "sflooding-faulty", N: 5,
		Automaton: SFlooding{Proposals: props},
		Oracle:    fd.Perfect{Delay: 2}, Horizon: 30000,
		Pattern: func() *model.FailurePattern {
			return model.MustPattern(5).MustCrash(2, 70)
		},
		Policy: func() sim.Policy { return &sim.RandomFairPolicy{} },
		Faults: &sim.LinkFaults{
			DelaySteps: []sim.DelayStep{{Max: 8}},
			// {p1, p3} severed from {p2, p4, p5}.
			Cuts: []sim.EdgeCut{{Edges: []sim.Edge{
				{A: 1, B: 2}, {A: 1, B: 4}, {A: 1, B: 5}, {A: 2, B: 3}, {A: 3, B: 4}, {A: 3, B: 5},
			}, From: 20, Until: 300}},
		},
		StopWhen: func() func(*sim.Trace) bool { return sim.CorrectDecided(0) },
	}
	for _, r := range harness.SeedMap(harness.Seeds(40), 0, func(_ *sim.RunContext, seed int64) harness.Result { return sc.Run(seed) }) {
		if r.Err != nil {
			t.Fatalf("seed %d: %v", r.Seed, r.Err)
		}
		if r.Trace.Stopped != sim.StopCondition {
			t.Fatalf("seed %d: stalled despite loss-free faults", r.Seed)
		}
		o, err := ExtractOutcome(r.Trace, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", r.Seed, err)
		}
		if err := o.CheckUniformSpec(r.Trace.Pattern, props); err != nil {
			t.Fatalf("seed %d: %v", r.Seed, err)
		}
	}
}

// TestRotatingRandomSafetySweep hammers the ◇S algorithm with chaotic
// crash patterns and noisy detectors: liveness may be lost, safety
// never.
func TestRotatingRandomSafetySweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("random sweep")
	}
	errs := harness.SeedMap(harness.Seeds(50), 0, func(_ *sim.RunContext, seed int64) error {
		rng := rand.New(rand.NewSource(4242 + seed))
		n := 4 + rng.Intn(3)
		pat := model.MustPattern(n)
		for p := 1; p <= n; p++ {
			if rng.Intn(2) == 0 { // aggressive: up to all crash
				pat.MustCrash(model.ProcessID(p), model.Time(1+rng.Intn(600)))
			}
		}
		props := DistinctProposals(n)
		tr, err := sim.Execute(sim.Config{
			N: n, Automaton: Rotating{Proposals: props},
			Oracle: fd.EventuallyStrong{
				GST: model.Time(rng.Intn(300)), Delay: 2,
				Seed: rng.Uint64(), FalseRate: 5 + rng.Intn(30),
			},
			Pattern: pat, Horizon: 8000, Seed: rng.Int63(),
			Policy: &sim.RandomFairPolicy{},
		})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		o, err := ExtractOutcome(tr, 0)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if err := o.CheckUniformAgreement(); err != nil {
			return fmt.Errorf("seed %d (n=%d, %v): %w", seed, n, pat, err)
		}
		if err := o.CheckValidity(props); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRotatingLossyLinkSafetySweep drops a quarter of all messages,
// stretches the rest and cuts the network in half for a while — and
// still requires uniform agreement and validity. A lossy link may
// starve liveness (no retransmission below the algorithm) but must
// never manufacture disagreement.
func TestRotatingLossyLinkSafetySweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("lossy sweep")
	}
	props := DistinctProposals(5)
	sc := harness.Scenario{
		Name: "rotating-lossy", N: 5,
		Automaton: Rotating{Proposals: props},
		OracleFor: func(seed int64) fd.Oracle {
			return fd.EventuallyStrong{GST: 80, Delay: 2, Seed: uint64(seed), FalseRate: 15}
		},
		Horizon: 5000,
		Pattern: func() *model.FailurePattern {
			return model.MustPattern(5).MustCrash(4, 120)
		},
		Policy: func() sim.Policy { return &sim.RandomFairPolicy{} },
		Faults: &sim.LinkFaults{
			DropSteps:  []sim.RateStep{{Pct: 25}},
			DelaySteps: []sim.DelayStep{{Max: 10}},
			// {p2, p5} severed from {p1, p3, p4}.
			Cuts: []sim.EdgeCut{{Edges: []sim.Edge{
				{A: 1, B: 2}, {A: 1, B: 5}, {A: 2, B: 3}, {A: 2, B: 4}, {A: 3, B: 5}, {A: 4, B: 5},
			}, From: 100, Until: 900}},
		},
	}
	for _, r := range harness.SeedMap(harness.Seeds(40), 0, func(_ *sim.RunContext, seed int64) harness.Result { return sc.Run(seed) }) {
		if r.Err != nil {
			t.Fatalf("seed %d: %v", r.Seed, r.Err)
		}
		o, err := ExtractOutcome(r.Trace, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", r.Seed, err)
		}
		if err := o.CheckUniformAgreement(); err != nil {
			t.Fatalf("seed %d: agreement broke on a lossy link: %v", r.Seed, err)
		}
		if err := o.CheckValidity(props); err != nil {
			t.Fatalf("seed %d: %v", r.Seed, err)
		}
	}
}

// TestRotatingLivenessSweep pins the two liveness regressions found
// during development: (a) a coordinator must never abandon an
// in-progress round when later coordinated rounds open, and (b) a
// proposal arriving before the participant reaches its round must be
// buffered, not dropped — in the paper's model the message would have
// waited in the buffer (§2.3). Both bugs stalled roughly one run in
// ten thousand, so this sweep runs wide and cheap — on the harness
// worker pool since the scenario is fixed and only the seed moves.
func TestRotatingLivenessSweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("wide sweep")
	}
	sc := harness.Scenario{
		Name: "rotating-liveness", N: 5,
		Automaton: Rotating{Proposals: DistinctProposals(5)},
		Oracle:    fd.EventuallyStrong{GST: 50, Delay: 2, Seed: 3, FalseRate: 10},
		Horizon:   20000,
		Pattern: func() *model.FailurePattern {
			return model.MustPattern(5).MustCrash(2, 40)
		},
		Policy:   func() sim.Policy { return &sim.RandomFairPolicy{} },
		StopWhen: func() func(*sim.Trace) bool { return sim.CorrectDecided(0) },
	}
	stalls := harness.SeedMap(harness.Seeds(4000), 0, func(_ *sim.RunContext, seed int64) error {
		r := sc.Run(seed)
		if r.Err != nil {
			return fmt.Errorf("seed %d: %w", r.Seed, r.Err)
		}
		if r.Trace.Stopped != sim.StopCondition {
			return fmt.Errorf("seed %d: rotating consensus stalled with majority alive", r.Seed)
		}
		return nil
	})
	for _, err := range stalls {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPartialOrderRandomSweep checks the §6.2 algorithm's
// correct-restricted guarantees over random configurations.
func TestPartialOrderRandomSweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("random sweep")
	}
	errs := harness.SeedMap(harness.Seeds(50), 0, func(_ *sim.RunContext, seed int64) error {
		rng := rand.New(rand.NewSource(99 + seed))
		n := 4 + rng.Intn(4)
		pat := model.MustPattern(n)
		var crashed int
		for p := 1; p <= n; p++ {
			if crashed < n-1 && rng.Intn(3) == 0 {
				pat.MustCrash(model.ProcessID(p), model.Time(1+rng.Intn(300)))
				crashed++
			}
		}
		props := DistinctProposals(n)
		tr, err := sim.Execute(sim.Config{
			N: n, Automaton: PartialOrder{Proposals: props},
			Oracle:  fd.PartiallyPerfect{Delay: model.Time(1 + rng.Intn(4))},
			Pattern: pat, Horizon: 30000, Seed: rng.Int63(),
			Policy:   &sim.RandomFairPolicy{},
			StopWhen: sim.CorrectDecided(0),
		})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		o, err := ExtractOutcome(tr, 0)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if err := o.CheckTermination(pat); err != nil {
			return fmt.Errorf("seed %d (n=%d, %v): %w", seed, n, pat, err)
		}
		if err := o.CheckAgreementAmongCorrect(pat); err != nil {
			return fmt.Errorf("seed %d (n=%d, %v): %w", seed, n, pat, err)
		}
		if err := o.CheckValidity(props); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
