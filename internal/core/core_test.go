package core

import (
	"errors"
	"testing"

	"realisticfd/internal/consensus"
	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// --- Totality (Lemma 4.1, experiment E1) ---

func TestSFloodingIsTotalWithRealisticDetectors(t *testing.T) {
	t.Parallel()
	oracles := []fd.Oracle{
		fd.Perfect{Delay: 2},
		fd.Scribe{},
		fd.RealisticStrong{BaseDelay: 1, Seed: 3, JitterMax: 4},
	}
	patterns := []func() *model.FailurePattern{
		func() *model.FailurePattern { return model.MustPattern(5) },
		func() *model.FailurePattern { return model.MustPattern(5).MustCrash(2, 30) },
		func() *model.FailurePattern {
			return model.MustPattern(5).MustCrash(1, 10).MustCrash(4, 120)
		},
	}
	for _, o := range oracles {
		for pi, mk := range patterns {
			for seed := int64(0); seed < 5; seed++ {
				pat := mk()
				props := consensus.DistinctProposals(5)
				tr, err := sim.Execute(sim.Config{
					N: 5, Automaton: consensus.SFlooding{Proposals: props},
					Oracle: o, Pattern: pat, Horizon: 6000, Seed: seed,
					Policy:   &sim.RandomFairPolicy{},
					StopWhen: sim.CorrectDecided(0),
				})
				if err != nil {
					t.Fatal(err)
				}
				if v := CheckTotality(tr, 0); v != nil {
					t.Fatalf("oracle %s, pattern %d, seed %d: %v", o.Name(), pi, seed, v)
				}
				if len(tr.Decisions(0)) == 0 {
					t.Fatalf("oracle %s, pattern %d, seed %d: no decisions", o.Name(), pi, seed)
				}
			}
		}
	}
}

func TestRotatingIsNotTotal(t *testing.T) {
	t.Parallel()
	// Footnote 4 of §4.1: the ◇S rotating-coordinator algorithm is not
	// total because it consults only majorities. Starve p4 and p5 of
	// steps (they are merely slow, not crashed): p1..p3 form a
	// majority and decide without them.
	props := consensus.DistinctProposals(5)
	tr, err := sim.Execute(sim.Config{
		N: 5, Automaton: consensus.Rotating{Proposals: props},
		Oracle:  fd.EventuallyStrong{GST: 1, Delay: 2}, // accurate from t=1
		Horizon: 6000, Seed: 3,
		Policy: &sim.MuzzlePolicy{
			Inner:   &sim.FairPolicy{},
			Muzzled: model.NewProcessSet(4, 5),
			Until:   5500,
		},
		StopWhen: func(tr *sim.Trace) bool { return len(tr.Decisions(0)) > 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	decs := tr.Decisions(0)
	if len(decs) == 0 {
		t.Fatal("no decision despite alive majority")
	}
	v := CheckTotality(tr, 0)
	if v == nil {
		t.Fatal("rotating-coordinator decision audited as total; it must not consult p4, p5")
	}
	for _, missing := range []model.ProcessID{4, 5} {
		if !v.Missing.Has(missing) {
			t.Errorf("expected %v among the unconsulted, got %v", missing, v.Missing)
		}
	}
	report := TotalityReport(tr, 0)
	if len(report) == 0 {
		t.Fatal("TotalityReport empty while CheckTotality found a violation")
	}
}

// --- Lemma 4.1 adversary (experiment E2) ---

func TestBuildDisagreement(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 5; seed++ {
		w, err := BuildDisagreement(AdversaryConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !w.Disagree() {
			t.Fatalf("seed %d: no disagreement: %v vs %v", seed, w.FirstDecision.Event.Value, w.VictimDecision.Event.Value)
		}
		if !w.PrefixIdentical {
			t.Fatalf("seed %d: R1 and R3 prefixes differ through t=%d — realism broken", seed, w.PrefixEnd)
		}
		if w.NonTotal == nil || !w.NonTotal.Missing.Has(1) {
			t.Fatalf("seed %d: attacked decision should miss the victim p1: %v", seed, w.NonTotal)
		}
		// The victim decides its own proposal, everyone else decided
		// without it.
		if w.VictimDecision.Event.Value != consensus.Value("v1") {
			t.Fatalf("seed %d: victim decided %v, want its own v1", seed, w.VictimDecision.Event.Value)
		}
		if w.FirstDecision.Event.Value == consensus.Value("v1") {
			t.Fatalf("seed %d: R1 decision adopted the unconsulted victim's value", seed)
		}
	}
}

func TestAdversaryFailsAgainstAccurateDetector(t *testing.T) {
	t.Parallel()
	// With an accurate realistic detector and fair delivery the same
	// algorithm is total, so the adversary must come back empty-handed
	// (ErrDecisionTotal) — the contrapositive reading of Lemma 4.1.
	_, err := BuildDisagreement(AdversaryConfig{Seed: 1, Accurate: true})
	if !errors.Is(err, ErrDecisionTotal) {
		t.Fatalf("err = %v, want ErrDecisionTotal", err)
	}
}

// --- T(D⇒P) reduction (Lemma 4.2, experiment E3) ---

// reductionDone stops once every correct process decided the final
// instance.
func reductionDone(maxInst int) func(*sim.Trace) bool {
	return func(tr *sim.Trace) bool {
		last := model.EmptySet()
		for _, d := range tr.Decisions(maxInst - 1) {
			last = last.Add(d.P)
		}
		return tr.Pattern.Correct().SubsetOf(last)
	}
}

func TestReductionEmulatesPerfect(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		pattern func() *model.FailurePattern
	}{
		{"failure-free", func() *model.FailurePattern { return model.MustPattern(5) }},
		{"one crash", func() *model.FailurePattern { return model.MustPattern(5).MustCrash(3, 200) }},
		{"two crashes", func() *model.FailurePattern {
			return model.MustPattern(5).MustCrash(1, 150).MustCrash(5, 600)
		}},
		{"all but one", func() *model.FailurePattern {
			return model.MustPattern(5).MustCrash(1, 100).MustCrash(2, 200).MustCrash(3, 300).MustCrash(5, 400)
		}},
	}
	// Lemma 4.2 runs an *infinite* sequence of instances; finitely many
	// suffice as long as instances keep starting after the last crash
	// at every correct process (DESIGN.md substitution table): a full
	// 5-process flooding instance needs ≈100 ticks, so 40 instances
	// comfortably outlast the latest crash at t=600.
	const maxInst = 40
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 4; seed++ {
				pat := tc.pattern()
				tr, err := sim.Execute(sim.Config{
					N: 5,
					Automaton: Reduction{
						Proposals:    consensus.DistinctProposals(5),
						MaxInstances: maxInst,
					},
					Oracle:   fd.Perfect{Delay: 2},
					Pattern:  pat,
					Horizon:  80000,
					Seed:     seed,
					Policy:   &sim.RandomFairPolicy{},
					StopWhen: reductionDone(maxInst),
				})
				if err != nil {
					t.Fatal(err)
				}
				if tr.Stopped != sim.StopCondition {
					t.Fatalf("seed %d: reduction did not complete %d instances (stopped %v)", seed, maxInst, tr.Stopped)
				}
				h, err := ExtractEmulatedHistory(tr)
				if err != nil {
					t.Fatal(err)
				}
				// Lemma 4.2: output(P) ensures strong completeness and
				// strong accuracy.
				if v := fd.CheckStrongAccuracy(h, pat); v != nil {
					t.Fatalf("seed %d: emulated detector not accurate: %v", seed, v)
				}
				if v := fd.CheckStrongCompleteness(h, pat); v != nil {
					t.Fatalf("seed %d: emulated detector not complete: %v", seed, v)
				}
			}
		})
	}
}

func TestReductionProgress(t *testing.T) {
	t.Parallel()
	const maxInst = 12
	pat := model.MustPattern(5).MustCrash(2, 250)
	tr, err := sim.Execute(sim.Config{
		N:         5,
		Automaton: Reduction{Proposals: consensus.DistinctProposals(5), MaxInstances: maxInst},
		Oracle:    fd.Perfect{Delay: 2},
		Pattern:   pat,
		Horizon:   30000,
		Seed:      9,
		StopWhen:  reductionDone(maxInst),
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := InstancesDecided(tr)
	for _, p := range pat.Correct().Slice() {
		if counts[p] != maxInst {
			t.Errorf("%v decided %d instances, want %d", p, counts[p], maxInst)
		}
	}
}

func TestReductionWithNoisyDetectorLosesAccuracy(t *testing.T) {
	t.Parallel()
	// Negative control: feed the reduction a ◇S-style noisy detector.
	// The inner algorithm loses totality (rounds skip falsely
	// suspected processes), so output(P) accumulates false suspicions:
	// ◇S cannot be transformed into P — consistent with the original
	// hierarchy and with Lemma 4.2's totality precondition.
	const maxInst = 12
	pat := model.MustPattern(5)
	tr, err := sim.Execute(sim.Config{
		N:         5,
		Automaton: Reduction{Proposals: consensus.DistinctProposals(5), MaxInstances: maxInst},
		Oracle:    fd.EventuallyStrong{GST: 100000, Delay: 2, Seed: 12, FalseRate: 35},
		Pattern:   pat,
		Horizon:   30000,
		Seed:      4,
		Policy:    &sim.RandomFairPolicy{},
		StopWhen:  reductionDone(maxInst),
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ExtractEmulatedHistory(tr)
	if err != nil {
		t.Fatal(err)
	}
	if v := fd.CheckStrongAccuracy(h, pat); v == nil {
		t.Fatal("emulation from a noisy ◇S detector stayed accurate; expected false suspicions in output(P)")
	}
}

// --- §6.3 collapse (experiment E7) ---

func TestCollapseWitnessAgainstNoisyDetector(t *testing.T) {
	t.Parallel()
	o := fd.EventuallyStrong{GST: 50, Delay: 1, Seed: 5, FalseRate: 30}
	f := model.MustPattern(5)
	w, err := BuildCollapseWitness(o, f, 200)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("no collapse witness against a falsely-suspecting detector")
	}
	if w.WeakAccuracyInFPrime == nil {
		t.Fatal("witness lacks the weak-accuracy violation")
	}
	// The continuation leaves only the falsely-suspected target
	// correct.
	if !w.FPrime.Correct().Equal(model.NewProcessSet(w.Target)) {
		t.Fatalf("continuation correct set = %v, want {%v}", w.FPrime.Correct(), w.Target)
	}
	if !w.F.SamePrefix(w.FPrime, w.T) {
		t.Fatal("witness patterns do not share the prefix")
	}
}

func TestCollapseNoWitnessAgainstPerfect(t *testing.T) {
	t.Parallel()
	// A strongly accurate realistic detector yields no witness: that
	// *is* the collapse — realistic Strong detectors are Perfect.
	for _, o := range []fd.Oracle{
		fd.Perfect{Delay: 2},
		fd.RealisticStrong{BaseDelay: 1, Seed: 8, JitterMax: 3},
	} {
		w, err := BuildCollapseWitness(o, model.MustPattern(5).MustCrash(2, 40), 200)
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		if w != nil {
			t.Fatalf("%s produced a collapse witness: %v", o.Name(), w)
		}
	}
}
