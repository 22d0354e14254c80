package experiments

import (
	"testing"

	"realisticfd/internal/consensus"
	"realisticfd/internal/core"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
	"realisticfd/internal/trb"
)

// The checked-in scenario files replaced hand-written harness.Scenario
// literals. This suite keeps the retired literals as references and
// proves the file-built scenarios replay the exact same runs: per-seed
// trace digests must be byte-identical. Golden tables pin the same
// property at the table level; this pins it per scenario, with the
// struct form visible next to the file name.

const equivSeeds = 2

func traceDigests(t *testing.T, sc harness.Scenario, seeds int) []string {
	t.Helper()
	got, err := harness.Stream(sc, harness.Seeds(seeds), harness.Reducer[[]string]{
		New: func() []string { return nil },
		Fold: func(acc []string, r harness.Result) []string {
			if r.Err != nil {
				return append(acc, "error: "+r.Err.Error())
			}
			return append(acc, r.Trace.Digest())
		},
		Merge: func(a, b []string) []string { return append(a, b...) },
	}, harness.StreamOptions{Workers: 2, ChunkSize: 1})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return got
}

func TestScenarioFilesMatchStructs(t *testing.T) {
	rf := func() sim.Policy { return &sim.RandomFairPolicy{} }
	stopDecided := func() func(*sim.Trace) bool { return sim.CorrectDecided(0) }
	props := consensus.DistinctProposals(expN)
	crashPat := func(crashes int, times ...model.Time) func() *model.FailurePattern {
		return func() *model.FailurePattern {
			pat := model.MustPattern(expN)
			for i := 0; i < crashes && i < len(times); i++ {
				pat.MustCrash(model.ProcessID(i+1), times[i])
			}
			return pat
		}
	}
	noCrash := crashPat(0)
	esOracleFor := func(seed int64) fd.Oracle {
		return fd.EventuallyStrong{GST: 100, Delay: 3, Seed: uint64(seed), FalseRate: 10}
	}

	cases := []struct {
		label    string
		file     string
		override func(*scenario.Spec)
		ref      harness.Scenario
	}{
		{
			label: "E1",
			file:  "E1",
			ref: harness.Scenario{
				Name: "E1", N: expN,
				Automaton: consensus.SFlooding{Proposals: props},
				Oracle:    fd.Perfect{Delay: 2}, Horizon: 20000,
				Pattern: noCrash, Policy: rf, StopWhen: stopDecided,
			},
		},
		{
			// The healing side-partition row: the spec's {1,2} boundary
			// compiles to an EdgeCut of the crossing edges, which must
			// replay identically to the classic ProcessSet Partition.
			label: "E1/realistic-strong+healing+2crashes",
			file:  "E1",
			override: func(s *scenario.Spec) {
				s.Oracle = scenario.OracleSpec{Kind: scenario.OracleRealisticStrong, BaseDelay: 1, Seed: 3, JitterMax: 4}
				s.Schema, s.Plan = scenario.SchemaV3, healingNetSpec()
				s.Crashes = crashSpecs(2, 30, 90, 150, 210)
			},
			ref: harness.Scenario{
				Name: "E1", N: expN,
				Automaton: consensus.SFlooding{Proposals: props},
				Oracle:    fd.RealisticStrong{BaseDelay: 1, Seed: 3, JitterMax: 4}, Horizon: 20000,
				Pattern: crashPat(2, 30, 90, 150, 210),
				Policy:  rf,
				Faults: &sim.LinkFaults{
					DelaySteps: []sim.DelayStep{{Max: 6}},
					// {p1, p2} severed from {p3, p4, p5}.
					Cuts: []sim.EdgeCut{{Edges: []sim.Edge{
						{A: 1, B: 3}, {A: 1, B: 4}, {A: 1, B: 5}, {A: 2, B: 3}, {A: 2, B: 4}, {A: 2, B: 5},
					}, From: 40, Until: 400}},
				},
				StopWhen: stopDecided,
			},
		},
		{
			label: "E3",
			file:  "E3",
			ref: harness.Scenario{
				Name: "E3", N: expN,
				Automaton: core.Reduction{
					Proposals:    props,
					MaxInstances: 40,
				},
				Oracle: fd.Perfect{Delay: 2}, Horizon: 120000,
				Pattern: noCrash, Policy: rf,
				StopWhen: func() func(*sim.Trace) bool {
					return func(tr *sim.Trace) bool {
						return tr.Pattern.Correct().SubsetOf(tr.DecidedSet(39))
					}
				},
			},
		},
		{
			label: "E4",
			file:  "E4",
			override: func(s *scenario.Spec) {
				s.Crashes = crashSpecs(2, 1, 60, 120, 180)
			},
			ref: harness.Scenario{
				Name: "E4", N: expN,
				Automaton: trb.Broadcast{Waves: 4},
				Oracle:    fd.Perfect{Delay: 2}, Horizon: 200000,
				Pattern:  crashPat(2, 1, 60, 120, 180),
				Policy:   rf,
				StopWhen: func() func(*sim.Trace) bool { return trb.AllDelivered(4) },
			},
		},
		{
			label: "E5",
			file:  "E5",
			override: func(s *scenario.Spec) {
				s.Crashes = crashSpecs(1, 30, 35, 40, 45)
			},
			ref: harness.Scenario{
				Name: "E5", N: expN,
				Automaton: consensus.MaraboutConsensus{Proposals: props},
				Oracle:    fd.Marabout{}, Horizon: 20000,
				Pattern: crashPat(1, 30, 35, 40, 45),
				Policy:  rf, StopWhen: stopDecided,
			},
		},
		{
			label: "E6-benign",
			file:  "E6-benign",
			ref: harness.Scenario{
				Name: "E6-benign", N: expN,
				Automaton: consensus.PartialOrder{Proposals: props},
				Oracle:    fd.PartiallyPerfect{Delay: 2}, Horizon: 20000,
				Pattern: noCrash, Policy: rf, StopWhen: stopDecided,
			},
		},
		{
			label: "E6-adversarial",
			file:  "E6-adversarial",
			ref: harness.Scenario{
				Name: "E6-adversarial", N: expN,
				Automaton: consensus.PartialOrder{Proposals: props},
				Oracle:    fd.PartiallyPerfect{Delay: 2}, Horizon: 20000,
				Pattern: noCrash,
				Policy: func() sim.Policy {
					return &sim.DelayPolicy{Target: model.NewProcessSet(1), Until: 20001}
				},
				AfterStep: func() func(*sim.Run, *sim.EventRecord) {
					crashed := false
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
				},
				StopWhen: stopDecided,
			},
		},
		{
			label: "E8-sflooding",
			file:  "E8-sflooding",
			override: func(s *scenario.Spec) {
				s.Crashes = crashSpecs(2, 5, 8, 11, 14)
			},
			ref: harness.Scenario{
				Name: "E8-sflooding", N: expN,
				Automaton: consensus.SFlooding{Proposals: props},
				Oracle:    fd.Perfect{Delay: 2}, Horizon: 20000,
				Pattern: crashPat(2, 5, 8, 11, 14),
				Policy:  rf, StopWhen: stopDecided,
			},
		},
		{
			label: "E8-rotating",
			file:  "E8-rotating",
			override: func(s *scenario.Spec) {
				s.Crashes = crashSpecs(1, 5, 8, 11, 14)
			},
			ref: harness.Scenario{
				Name: "E8-rotating", N: expN,
				Automaton: consensus.Rotating{Proposals: props},
				OracleFor: esOracleFor, Horizon: 20000,
				Pattern: crashPat(1, 5, 8, 11, 14),
				Policy:  rf, StopWhen: stopDecided,
			},
		},
		{
			label: "E8-rotating-lossy",
			file:  "E8-rotating-lossy",
			ref: harness.Scenario{
				Name: "E8-rotating-lossy", N: expN,
				Automaton: consensus.Rotating{Proposals: props},
				OracleFor: esOracleFor, Horizon: 6000,
				Pattern: noCrash, Policy: rf,
				Faults: &sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 15}}, DelaySteps: []sim.DelayStep{{Max: 4}}},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			s := baseSpec(tc.file)
			if tc.override != nil {
				tc.override(&s)
			}
			built := scenario.MustBuild(s)
			want := traceDigests(t, tc.ref, equivSeeds)
			got := traceDigests(t, built, equivSeeds)
			if len(got) != len(want) {
				t.Fatalf("digest count: file %d, struct %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("seed %d: file-built trace %s != struct-built %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestScenarioFilesComplete pins the inventory: every named experiment
// scenario has its file, every file parses, and each digest is stable
// across loads.
func TestScenarioFilesComplete(t *testing.T) {
	names := []string{
		"E1", "E3", "E4", "E5", "E6-benign", "E6-adversarial",
		"E8-sflooding", "E8-rotating", "E8-rotating-lossy",
	}
	entries, err := scenarioFiles.ReadDir("testdata/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Errorf("checked in %d scenario files, want %d", len(entries), len(names))
	}
	for _, name := range names {
		s := baseSpec(name)
		if s.Name != name {
			t.Errorf("file %s.json declares name %q", name, s.Name)
		}
		d1, err := s.ConfigDigest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d2, err := baseSpec(name).ConfigDigest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d1 != d2 {
			t.Errorf("%s: digest unstable across loads: %s vs %s", name, d1, d2)
		}
	}
}
