package sim

import (
	"fmt"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// GoldenCase is one cell of the (automaton, policy, faults, oracle,
// pattern, seed) grid whose rendering is pinned in testdata. The grid
// is built here, beside the test automata it schedules, and exported to
// TestGoldenTraces, which lives in package sim_test because it imports
// the test decoder (internal/sim/tracetest imports this package).
type GoldenCase struct {
	Name string
	Cfg  func(seed int64) Config
}

// GoldenGrid enumerates the pinned configurations. The grid was fixed
// (and its digests generated) *before* the incremental trace-index /
// engine hot-path rewrite — though after the deliberate, digest-visible
// StopQuiescent→StopAllCrashed rename, which the allcrash case pins —
// so a hash mismatch means the rewrite changed observable run
// behavior — exactly what it must never do. Extend the grid freely;
// regenerating requires
//
//	go test ./internal/sim -run TestGoldenTraces -update
//
// and a PR explaining why behavior was allowed to change.
func GoldenGrid() []GoldenCase {
	randomFair := func() Policy { return &RandomFairPolicy{} }
	policies := []struct {
		name   string
		policy func() Policy
		faults *LinkFaults
	}{
		{"fair", func() Policy { return &FairPolicy{} }, nil},
		{"rand", randomFair, nil},
		{"delay", func() Policy {
			return &DelayPolicy{Target: model.NewProcessSet(2), Until: 120}
		}, nil},
		{"muzzle", func() Policy {
			return &MuzzlePolicy{Inner: &FairPolicy{}, Muzzled: model.NewProcessSet(3, 4), Until: 80}
		}, nil},
		{"drop", randomFair, &LinkFaults{DropSteps: []RateStep{{Pct: 20}}}},
		{"jitter", randomFair, &LinkFaults{DelaySteps: []DelayStep{{Max: 6}}}},
		{"partition", randomFair, &LinkFaults{
			DropSteps: []RateStep{{Pct: 5}}, DelaySteps: []DelayStep{{Max: 3}},
			// {p1, p2, p3} severed from {p4, p5, p6}.
			Cuts: []EdgeCut{{Edges: []Edge{
				{A: 1, B: 4}, {A: 1, B: 5}, {A: 1, B: 6},
				{A: 2, B: 4}, {A: 2, B: 5}, {A: 2, B: 6},
				{A: 3, B: 4}, {A: 3, B: 5}, {A: 3, B: 6},
			}, From: 30, Until: 150}},
		}},
	}
	oracles := []struct {
		name   string
		oracle fd.Oracle
	}{
		{"perfect", fd.Perfect{Delay: 2}},
		{"scribe", fd.Scribe{}},
		{"evstrong", fd.EventuallyStrong{GST: 100, Delay: 3, Seed: 11, FalseRate: 10}},
		{"rstrong", fd.RealisticStrong{BaseDelay: 1, Seed: 3, JitterMax: 4}},
	}
	patterns := []struct {
		name    string
		pattern func() *model.FailurePattern
	}{
		{"clean", func() *model.FailurePattern { return model.MustPattern(6) }},
		{"crash2", func() *model.FailurePattern {
			return model.MustPattern(6).MustCrash(2, 90).MustCrash(5, 200)
		}},
	}

	var out []GoldenCase
	for _, pol := range policies {
		for _, o := range oracles {
			for _, pat := range patterns {
				pol, o, pat := pol, o, pat
				out = append(out, GoldenCase{
					Name: fmt.Sprintf("noisy/%s/%s/%s", pol.name, o.name, pat.name),
					Cfg: func(seed int64) Config {
						return Config{
							N: 6, Automaton: noisyAutomaton{}, Oracle: o.oracle,
							Pattern: pat.pattern(), Horizon: 400, Seed: seed,
							Policy: pol.policy(), Faults: pol.faults,
						}
					},
				})
			}
		}
	}
	// A StopWhen run: the predicate path is digest-visible (it decides
	// where the run ends), so it is pinned too.
	out = append(out, GoldenCase{
		Name: "chain/fair/perfect/stopwhen",
		Cfg: func(seed int64) Config {
			return Config{
				N: 5, Automaton: chainAutomaton{k: 4}, Oracle: fd.Perfect{},
				Horizon: 400, Seed: seed, StopWhen: CorrectDecided(0),
			}
		},
	})
	// An all-crashed run pins the StopAllCrashed reason.
	out = append(out, GoldenCase{
		Name: "broadcast/fair/perfect/allcrash",
		Cfg: func(seed int64) Config {
			pat := model.MustPattern(4)
			for p := 1; p <= 4; p++ {
				pat.MustCrash(model.ProcessID(p), 20)
			}
			return Config{
				N: 4, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
				Pattern: pat, Horizon: 100, Seed: seed,
			}
		},
	})
	return out
}
