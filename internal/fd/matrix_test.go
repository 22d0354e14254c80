package fd

import (
	"testing"

	"realisticfd/internal/model"
)

// TestClassMatrix pins the complete oracle × class membership matrix
// over a two-crash pattern — the ground truth every other experiment
// builds on. A change to any oracle or checker that flips a cell
// fails here first.
func TestClassMatrix(t *testing.T) {
	t.Parallel()
	f := model.MustPattern(5).MustCrash(2, 20).MustCrash(4, 80)
	type row struct {
		oracle           Oracle
		p, s, ds, dp, pl bool
		realistic        bool
	}
	rows := []row{
		{oracle: Perfect{Delay: 2}, p: true, s: true, ds: true, dp: true, pl: true, realistic: true},
		{oracle: Scribe{}, p: true, s: true, ds: true, dp: true, pl: true, realistic: true},
		{oracle: RealisticStrong{BaseDelay: 1, Seed: 2, JitterMax: 3}, p: true, s: true, ds: true, dp: true, pl: true, realistic: true},
		{oracle: EventuallyStrong{GST: 60, Delay: 2, Seed: 3, FalseRate: 25}, ds: true, dp: true, realistic: true},
		{oracle: EventuallyPerfect{GST: 60, Delay: 2, Seed: 4, FalseRate: 25}, ds: true, dp: true, realistic: true},
		{oracle: PartiallyPerfect{Delay: 2}, pl: true, realistic: true},
		{oracle: Marabout{}, s: true, ds: true, dp: true, realistic: false},
		{oracle: NonRealisticStrong{Delay: 2, FalsePeriod: 10}, s: true, ds: true, realistic: false},
	}
	for _, r := range rows {
		r := r
		t.Run(r.oracle.Name(), func(t *testing.T) {
			t.Parallel()
			h := RecordHistory(r.oracle, f, 300, 1)
			rep := Classify(h, f)
			if got := rep.InP(); got != r.p {
				t.Errorf("InP = %v, want %v (%+v)", got, r.p, rep)
			}
			if got := rep.InS(); got != r.s {
				t.Errorf("InS = %v, want %v", got, r.s)
			}
			if got := rep.InDiamondS(); got != r.ds {
				t.Errorf("In◇S = %v, want %v", got, r.ds)
			}
			if got := rep.InDiamondP(); got != r.dp {
				t.Errorf("In◇P = %v, want %v", got, r.dp)
			}
			if got := rep.InPLess(); got != r.pl {
				t.Errorf("InP< = %v, want %v", got, r.pl)
			}
			if got := r.oracle.Realistic(); got != r.realistic {
				t.Errorf("Realistic() = %v, want %v", got, r.realistic)
			}
			// The realism *check* must agree with the claim.
			caught := CheckRealism(r.oracle, 5, 100, 10) != nil
			if caught == r.realistic {
				t.Errorf("CheckRealism caught=%v but claim realistic=%v", caught, r.realistic)
			}
		})
	}
}

// TestMaraboutNotInPLess: Marabout suspects *future* crashes, so it
// breaks strong accuracy — keeping it out of P and P< despite its
// perfect completeness. Pinned separately because the paper calls M
// and P "incomparable".
func TestMaraboutIncomparableWithP(t *testing.T) {
	t.Parallel()
	f := model.MustPattern(5).MustCrash(3, 100)
	h := RecordHistory(Marabout{}, f, 300, 1)
	rep := Classify(h, f)
	if rep.InP() || rep.InPLess() {
		t.Fatalf("Marabout must fail strong accuracy: %+v", rep.StrongAccuracy)
	}
	// ... and Perfect is not "Marabout-complete": it cannot suspect
	// before the crash, which is exactly why the classes are
	// incomparable — M is accurate about the future, P about the past.
	hp := RecordHistory(Perfect{Delay: 0}, f, 300, 1)
	if first, ever := hp.EverSuspected(1, 3); ever && first < 100 {
		t.Fatal("Perfect suspected a process before its crash")
	}
}

// TestImplicationsHoldEmpirically: a history in a class is in every
// class the containment order puts above it (P ⊆ S ⊆ ◇S, P ⊆ ◇P ⊆ ◇S,
// P ⊆ P<) — the order made executable over Classify.
func TestImplicationsHoldEmpirically(t *testing.T) {
	t.Parallel()
	f := model.MustPattern(5).MustCrash(3, 30)
	oracles := []Oracle{
		Perfect{},
		Perfect{Delay: 4},
		Scribe{},
		RealisticStrong{BaseDelay: 1, Seed: 2, JitterMax: 3},
		EventuallyStrong{GST: 50, Delay: 2, Seed: 5, FalseRate: 20},
		EventuallyPerfect{GST: 50, Delay: 2, Seed: 6, FalseRate: 20},
		PartiallyPerfect{Delay: 1},
	}
	for _, o := range oracles {
		r := Classify(RecordHistory(o, f, 300, 1), f)
		implications := []struct {
			name        string
			in, implied bool
		}{
			{"P ⇒ S", r.InP(), r.InS()},
			{"P ⇒ ◇P", r.InP(), r.InDiamondP()},
			{"P ⇒ ◇S", r.InP(), r.InDiamondS()},
			{"P ⇒ P<", r.InP(), r.InPLess()},
			{"S ⇒ ◇S", r.InS(), r.InDiamondS()},
			{"◇P ⇒ ◇S", r.InDiamondP(), r.InDiamondS()},
		}
		for _, c := range implications {
			if c.in && !c.implied {
				t.Errorf("%s breaks %s: %v", o.Name(), c.name, r)
			}
		}
	}
}
