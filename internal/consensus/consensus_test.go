package consensus

import (
	"fmt"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

const testHorizon = model.Time(6000)

// runConsensus executes one consensus run and returns trace + outcome.
func runConsensus(t *testing.T, aut sim.Automaton, oracle fd.Oracle, pat *model.FailurePattern, seed int64) (*sim.Trace, *Outcome) {
	t.Helper()
	tr, err := sim.Execute(sim.Config{
		N: pat.N(), Automaton: aut, Oracle: oracle, Pattern: pat,
		Horizon: testHorizon, Seed: seed,
		Policy:   &sim.RandomFairPolicy{},
		StopWhen: sim.CorrectDecided(0),
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	o, err := ExtractOutcome(tr, 0)
	if err != nil {
		t.Fatalf("ExtractOutcome: %v", err)
	}
	return tr, o
}

func TestProposalsValidate(t *testing.T) {
	t.Parallel()
	props := DistinctProposals(5)
	if err := props.Validate(5); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	delete(props, 3)
	if err := props.Validate(5); err == nil {
		t.Fatal("Validate accepted a missing proposal")
	}
	props[3] = NoValue
	if err := props.Validate(5); err == nil {
		t.Fatal("Validate accepted an empty proposal")
	}
}

func TestSFloodingFailureFree(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 10; seed++ {
		pat := model.MustPattern(5)
		props := DistinctProposals(5)
		_, o := runConsensus(t, SFlooding{Proposals: props}, fd.Perfect{Delay: 2}, pat, seed)
		if err := o.CheckUniformSpec(pat, props); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// With no failures and no suspicions, every vector is complete
		// and everyone decides p1's value.
		if v, _ := o.DecidedValue(); v != props[1] {
			t.Fatalf("seed %d: decided %q, want p1's %q", seed, v, props[1])
		}
	}
}

func TestSFloodingUnboundedCrashes(t *testing.T) {
	t.Parallel()
	// S-based consensus must survive ANY number of crashes — this is
	// the sufficient half of Proposition 4.3. Crash n-1 of 5 processes.
	cases := []struct {
		name    string
		crashes map[model.ProcessID]model.Time
	}{
		{"one early", map[model.ProcessID]model.Time{1: 5}},
		{"two mixed", map[model.ProcessID]model.Time{2: 10, 5: 200}},
		{"majority gone", map[model.ProcessID]model.Time{1: 10, 2: 50, 3: 90}},
		{"all but p4", map[model.ProcessID]model.Time{1: 10, 2: 60, 3: 110, 5: 160}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 6; seed++ {
				pat := model.MustPattern(5)
				for p, ct := range tc.crashes {
					pat.MustCrash(p, ct)
				}
				props := DistinctProposals(5)
				_, o := runConsensus(t, SFlooding{Proposals: props}, fd.Perfect{Delay: 3}, pat, seed)
				if err := o.CheckUniformSpec(pat, props); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestSFloodingWithRealisticStrong(t *testing.T) {
	t.Parallel()
	// The paper's sufficient condition uses any S detector; our
	// realistic Strong oracle (which §6.3 forces to be Perfect).
	pat := model.MustPattern(6).MustCrash(2, 40).MustCrash(6, 100)
	props := DistinctProposals(6)
	oracle := fd.RealisticStrong{BaseDelay: 2, Seed: 3, JitterMax: 6}
	for seed := int64(0); seed < 6; seed++ {
		p := pat.Clone()
		_, o := runConsensus(t, SFlooding{Proposals: props}, oracle, p, seed)
		if err := o.CheckUniformSpec(p, props); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSFloodingUniformityOfCrashedDeciders(t *testing.T) {
	t.Parallel()
	// Uniform agreement: a process that decides and then crashes must
	// agree with the survivors. Crash p1 shortly after the run starts
	// deciding.
	for seed := int64(0); seed < 10; seed++ {
		pat := model.MustPattern(5).MustCrash(1, 500)
		props := DistinctProposals(5)
		_, o := runConsensus(t, SFlooding{Proposals: props}, fd.Perfect{Delay: 2}, pat, seed)
		if err := o.CheckUniformAgreement(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRotatingFailureFree(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 10; seed++ {
		pat := model.MustPattern(5)
		props := DistinctProposals(5)
		oracle := fd.EventuallyStrong{GST: 100, Delay: 3, Seed: uint64(seed), FalseRate: 15}
		_, o := runConsensus(t, Rotating{Proposals: props}, oracle, pat, seed)
		if err := o.CheckUniformSpec(pat, props); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRotatingMinorityCrashes(t *testing.T) {
	t.Parallel()
	// f < n/2 crashes: ◇S suffices (background result of §1.2).
	for seed := int64(0); seed < 8; seed++ {
		pat := model.MustPattern(5).MustCrash(1, 30).MustCrash(4, 120)
		props := DistinctProposals(5)
		oracle := fd.EventuallyStrong{GST: 150, Delay: 3, Seed: uint64(seed), FalseRate: 10}
		_, o := runConsensus(t, Rotating{Proposals: props}, oracle, pat, seed)
		if err := o.CheckUniformSpec(pat, props); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRotatingBlocksWithoutMajority(t *testing.T) {
	t.Parallel()
	// With 3 of 5 crashed before the protocol can assemble majorities,
	// the rotating-coordinator algorithm must block (it cannot violate
	// safety, it simply never terminates) — the ◇S half of E8.
	pat := model.MustPattern(5).MustCrash(1, 2).MustCrash(2, 3).MustCrash(3, 4)
	props := DistinctProposals(5)
	oracle := fd.EventuallyStrong{GST: 50, Delay: 3, Seed: 1, FalseRate: 10}
	tr, err := sim.Execute(sim.Config{
		N: 5, Automaton: Rotating{Proposals: props}, Oracle: oracle, Pattern: pat,
		Horizon: 4000, Seed: 7, Policy: &sim.RandomFairPolicy{},
		StopWhen: sim.CorrectDecided(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != sim.StopHorizon {
		t.Fatalf("run stopped by %v, want horizon (blocked)", tr.Stopped)
	}
	if n := len(tr.Decisions(0)); n != 0 {
		t.Fatalf("%d decisions despite minority alive", n)
	}
}

func TestRotatingSafetyUnderMassiveCrash(t *testing.T) {
	t.Parallel()
	// Even when crashes destroy liveness mid-protocol, decisions that
	// did happen must agree (quorum locking).
	for seed := int64(0); seed < 12; seed++ {
		pat := model.MustPattern(5).MustCrash(2, 200).MustCrash(3, 210).MustCrash(4, 220)
		props := DistinctProposals(5)
		oracle := fd.EventuallyStrong{GST: 80, Delay: 3, Seed: uint64(seed), FalseRate: 20}
		tr, err := sim.Execute(sim.Config{
			N: 5, Automaton: Rotating{Proposals: props}, Oracle: oracle, Pattern: pat,
			Horizon: 4000, Seed: seed, Policy: &sim.RandomFairPolicy{},
		})
		if err != nil {
			t.Fatal(err)
		}
		o, err := ExtractOutcome(tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.CheckUniformAgreement(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := o.CheckValidity(props); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestMaraboutConsensusUnboundedCrashes(t *testing.T) {
	t.Parallel()
	// §6.1: with the (non-realistic) Marabout detector, consensus is
	// solvable no matter how many processes crash — here all but p5.
	cases := []struct {
		name   string
		mut    func(*model.FailurePattern)
		expect model.ProcessID // whose value wins = lowest correct
	}{
		{"failure-free", func(*model.FailurePattern) {}, 1},
		{"p1 crashes", func(f *model.FailurePattern) { f.MustCrash(1, 40) }, 2},
		{"all but p5", func(f *model.FailurePattern) {
			f.MustCrash(1, 40).MustCrash(2, 42).MustCrash(3, 44).MustCrash(4, 46)
		}, 5},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 5; seed++ {
				pat := model.MustPattern(5)
				tc.mut(pat)
				props := DistinctProposals(5)
				_, o := runConsensus(t, MaraboutConsensus{Proposals: props}, fd.Marabout{}, pat, seed)
				if err := o.CheckUniformSpec(pat, props); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if v, _ := o.DecidedValue(); v != props[tc.expect] {
					t.Fatalf("seed %d: decided %q, want %v's %q", seed, v, tc.expect, props[tc.expect])
				}
			}
		})
	}
}

func TestPartialOrderCorrectRestricted(t *testing.T) {
	t.Parallel()
	// §6.2: P< solves correct-restricted consensus with unbounded
	// failures. Agreement among correct processes must hold in every
	// run; uniform agreement need not (see the adversarial test
	// below).
	cases := []map[model.ProcessID]model.Time{
		{},
		{1: 30},
		{1: 30, 2: 35},
		{1: 30, 2: 35, 3: 40, 4: 45},
		{3: 25, 5: 60},
	}
	for i, crashes := range cases {
		for seed := int64(0); seed < 6; seed++ {
			pat := model.MustPattern(5)
			for p, ct := range crashes {
				pat.MustCrash(p, ct)
			}
			props := DistinctProposals(5)
			_, o := runConsensus(t, PartialOrder{Proposals: props}, fd.PartiallyPerfect{Delay: 3}, pat, seed)
			if err := o.CheckTermination(pat); err != nil {
				t.Fatalf("case %d seed %d: %v", i, seed, err)
			}
			if err := o.CheckAgreementAmongCorrect(pat); err != nil {
				t.Fatalf("case %d seed %d: %v", i, seed, err)
			}
			if err := o.CheckValidity(props); err != nil {
				t.Fatalf("case %d seed %d: %v", i, seed, err)
			}
		}
	}
}

func TestPartialOrderUniformViolation(t *testing.T) {
	t.Parallel()
	// The §6.2 separation witness: p1 decides its own value and
	// crashes before anyone hears from it; the survivors agree on a
	// different value. Uniform consensus is violated while
	// correct-restricted consensus holds — so P< < P, and uniform
	// consensus is strictly harder.
	pat := model.MustPattern(5)
	props := DistinctProposals(5)
	var crashed bool
	tr, err := sim.Execute(sim.Config{
		N: 5, Automaton: PartialOrder{Proposals: props},
		Oracle:  fd.PartiallyPerfect{Delay: 3},
		Pattern: pat, Horizon: testHorizon, Seed: 11,
		// Embargo every message from p1 for the whole run: the model
		// allows unbounded delay, and p1 will be faulty so condition
		// (5) never forces delivery.
		Policy: &sim.DelayPolicy{Target: model.NewProcessSet(1), Until: testHorizon + 1},
		AfterStep: func(r *sim.Run, ev *sim.EventRecord) {
			if crashed || ev.P != 1 {
				return
			}
			for _, pe := range ev.Events {
				if pe.Kind == sim.KindDecide {
					crashed = true
					if err := r.Crash(1); err != nil {
						t.Errorf("crash p1: %v", err)
					}
				}
			}
		},
		StopWhen: sim.CorrectDecided(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("p1 never decided; cannot build the witness")
	}
	o, err := ExtractOutcome(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.CheckAgreementAmongCorrect(pat); err != nil {
		t.Fatalf("correct-restricted agreement must hold: %v", err)
	}
	if err := o.CheckUniformAgreement(); err == nil {
		t.Fatal("expected a uniform-agreement violation, got none")
	}
	if o.Decided[1] != props[1] {
		t.Fatalf("p1 decided %q, want its own %q", o.Decided[1], props[1])
	}
}

func TestExtractOutcomeRejectsDoubleDecision(t *testing.T) {
	t.Parallel()
	tr := fabricateTrace(t)
	if _, err := ExtractOutcome(tr, 0); err == nil {
		t.Fatal("double decision not rejected")
	}
}

// fabricateTrace builds a trace where one process decides twice, via a
// deliberately buggy automaton.
func fabricateTrace(t *testing.T) *sim.Trace {
	t.Helper()
	tr, err := sim.Execute(sim.Config{
		N: 4, Automaton: doubleDecider{}, Oracle: fd.Perfect{}, Horizon: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

type doubleDecider struct{}

type ddProc struct{ count int }

func (doubleDecider) Spawn(model.ProcessID, int) sim.Process { return &ddProc{} }

func (p *ddProc) Step(*sim.Message, model.ProcessSet, model.Time) sim.Actions {
	if p.count < 2 {
		p.count++
		return sim.Actions{Events: []sim.ProtocolEvent{{Kind: sim.KindDecide, Instance: 0, Value: Value("x")}}}
	}
	return sim.Actions{}
}

// TestOutcomeNamesLowestProcess: with several violators, CheckValidity
// names the lowest one and DecidedValue returns the lowest decider's
// value, whatever order the Decided map iterates in. Each round builds
// a new map, so an order-dependent answer shows within a few rounds.
func TestOutcomeNamesLowestProcess(t *testing.T) {
	t.Parallel()
	props := DistinctProposals(8)
	for round := 0; round < 20; round++ {
		o := &Outcome{Decided: map[model.ProcessID]Value{}}
		for p := model.ProcessID(8); p >= 3; p-- {
			o.Decided[p] = Value(fmt.Sprintf("bogus%d", p))
		}
		err := o.CheckValidity(props)
		if want := `validity violated: p3 decided "bogus3", which nobody proposed`; err == nil || err.Error() != want {
			t.Fatalf("round %d: CheckValidity = %v, want %s", round, err, want)
		}
		if v, ok := o.DecidedValue(); !ok || v != "bogus3" {
			t.Fatalf("round %d: DecidedValue = %q, %v; want the lowest decider p3's \"bogus3\"", round, v, ok)
		}
	}
}
