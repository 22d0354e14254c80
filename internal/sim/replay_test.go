package sim

import (
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// replayCases enumerates every scheduling policy with a fresh-state
// constructor, and the link faults of the faulty cases: policies are
// stateful per-run objects, so each replay builds a new one (and a new
// pattern — the engine extends patterns in place).
func replayCases() []struct {
	name   string
	policy func() Policy
	faults *LinkFaults
} {
	randomFair := func() Policy { return &RandomFairPolicy{} }
	return []struct {
		name   string
		policy func() Policy
		faults *LinkFaults
	}{
		{"fair", func() Policy { return &FairPolicy{} }, nil},
		{"random-fair", randomFair, nil},
		{"delay-adversary", func() Policy {
			return &DelayPolicy{Target: model.NewProcessSet(2), Until: 120}
		}, nil},
		{"muzzle-adversary", func() Policy {
			return &MuzzlePolicy{Inner: &FairPolicy{}, Muzzled: model.NewProcessSet(3, 4), Until: 80}
		}, nil},
		{"faulty-drop", func() Policy { return &FairPolicy{} }, &LinkFaults{DropSteps: []RateStep{{Pct: 20}}}},
		{"faulty-delay", randomFair, &LinkFaults{DelaySteps: []DelayStep{{Max: 6}}}},
		{"faulty-partition", randomFair, &LinkFaults{
			DropSteps: []RateStep{{Pct: 5}}, DelaySteps: []DelayStep{{Max: 3}},
			// {p1, p2, p3} severed from {p4, p5, p6}.
			Cuts: []EdgeCut{{Edges: []Edge{
				{A: 1, B: 4}, {A: 1, B: 5}, {A: 1, B: 6},
				{A: 2, B: 4}, {A: 2, B: 5}, {A: 2, B: 6},
				{A: 3, B: 4}, {A: 3, B: 5}, {A: 3, B: 6},
			}, From: 30, Until: 150}},
		}},
	}
}

// TestDeterministicReplayAllPolicies is the regression gate for the
// engine's replay guarantee: the same Config and Seed must reproduce a
// byte-identical trace under every policy, faulty links included.
// Lemma 4.1's indistinguishability argument (and the parallel sweep
// harness's ordering guarantee) both assume exactly this.
func TestDeterministicReplayAllPolicies(t *testing.T) {
	t.Parallel()
	for _, tc := range replayCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(seed int64) string {
				pat := model.MustPattern(6).MustCrash(2, 90)
				tr, err := Execute(Config{
					N: 6, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
					Pattern: pat, Horizon: 600, Seed: seed, Policy: tc.policy(), Faults: tc.faults,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return tr.Digest()
			}
			for _, seed := range []int64{1, 7, 42} {
				if a, b := run(seed), run(seed); a != b {
					t.Fatalf("seed %d: replay diverged (%s vs %s)", seed, a[:12], b[:12])
				}
			}
		})
	}
}

// TestSeedActuallyMatters is the complement: with randomized policies,
// different seeds must explore different schedules — otherwise the
// sweeps explore nothing.
func TestSeedActuallyMatters(t *testing.T) {
	t.Parallel()
	run := func(seed int64) string {
		tr, err := Execute(Config{
			N: 6, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{},
			Horizon: 600, Seed: seed, Policy: &RandomFairPolicy{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Digest()
	}
	digests := make(map[string]bool)
	for seed := int64(0); seed < 8; seed++ {
		digests[run(seed)] = true
	}
	if len(digests) < 2 {
		t.Fatal("8 seeds produced a single schedule; randomness is dead")
	}
}
