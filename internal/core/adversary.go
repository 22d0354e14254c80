package core

import (
	"errors"
	"fmt"

	"realisticfd/internal/consensus"
	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// AdversaryConfig parameterizes the executable Lemma 4.1 proof.
type AdversaryConfig struct {
	// N is the system size (default 5).
	N int
	// Victim is the process p_j whose consultation the adversary
	// suppresses (default p1, so the flooding decision value visibly
	// differs from the victim's own proposal).
	Victim model.ProcessID
	// Horizon bounds both runs (default 8000).
	Horizon model.Time
	// Seed drives the (shared) schedule of both runs.
	Seed int64
	// Delay is the genuine-crash detection latency of the scripted
	// detector (default 3).
	Delay model.Time
	// Accurate disarms the adversary: no false suspicions are scripted
	// and no messages are embargoed. With an accurate realistic
	// detector the flooding algorithm is total, so BuildDisagreement
	// must fail with ErrDecisionTotal — the contrapositive of
	// Lemma 4.1, used as a negative control by the experiments.
	Accurate bool
}

func (c *AdversaryConfig) defaults() {
	if c.N == 0 {
		c.N = 5
	}
	if c.Victim == 0 {
		c.Victim = 1
	}
	if c.Horizon == 0 {
		c.Horizon = 8000
	}
	if c.Delay == 0 {
		c.Delay = 3
	}
}

// DisagreementWitness is the outcome of the Lemma 4.1 construction:
// two runs of the same algorithm, with failure patterns that agree
// through PrefixEnd, whose schedules are identical through PrefixEnd
// (the realistic detector cannot tell them apart), and in which two
// processes decide differently.
type DisagreementWitness struct {
	// RunR1 is the paper's R1: no crashes, the victim starved of
	// messages, a decision reached without consulting the victim.
	RunR1 *sim.Trace
	// RunR3 is the paper's R3: same prefix, then every process except
	// the victim crashes; the victim later decides alone.
	RunR3 *sim.Trace
	// NonTotal is the audited totality violation of the R1 decision.
	NonTotal *TotalityViolation
	// PrefixEnd is the time through which patterns and schedules agree
	// (the R1 decision time).
	PrefixEnd model.Time
	// FirstDecision is the R1/R3 decision made without the victim.
	FirstDecision sim.LocatedEvent
	// VictimDecision is the victim's solo decision in R3.
	VictimDecision sim.LocatedEvent
	// PrefixIdentical records the event-by-event comparison of the two
	// runs through PrefixEnd.
	PrefixIdentical bool
}

// Disagree reports whether the two decisions conflict — the
// contradiction concluding Lemma 4.1.
func (w *DisagreementWitness) Disagree() bool {
	return w.FirstDecision.Event.Value != w.VictimDecision.Event.Value
}

// String summarizes the witness.
func (w *DisagreementWitness) String() string {
	return fmt.Sprintf("lemma4.1 witness: %v decided %v at t=%d without consulting %v; %v decided %v at t=%d solo; prefix(≤%d) identical=%v",
		w.FirstDecision.P, w.FirstDecision.Event.Value, w.FirstDecision.T,
		w.NonTotal.Missing, w.VictimDecision.P, w.VictimDecision.Event.Value,
		w.VictimDecision.T, w.PrefixEnd, w.PrefixIdentical)
}

// Errors returned by the adversary.
var (
	// ErrNoDecision means the base run produced no decision to attack.
	ErrNoDecision = errors.New("core: adversary found no decision in R1")
	// ErrDecisionTotal means the base run's decision consulted every
	// alive process, so Lemma 4.1 offers no attack surface — expected
	// when the algorithm is run with an accurate realistic detector.
	ErrDecisionTotal = errors.New("core: R1 decision is total; no adversarial continuation exists")
)

// BuildDisagreement executes the Lemma 4.1 proof against the S-based
// flooding algorithm run with a ◇S-style scripted detector (false
// suspicions permitted), in the environment with no bound on failures:
//
//	R1: all processes suspect the victim (a false suspicion a ◇S
//	    detector may emit); messages from/to the victim are delayed.
//	    Some process p_i decides a value v at time t without a message
//	    from the victim in the decision's causal chain (non-total).
//	R3: the failure pattern agrees with R1 through t; at t+1 every
//	    process except the victim crashes. Because the detector is
//	    realistic and the schedule seeded, R3 is step-for-step
//	    identical with R1 through t — p_i still decides v. The victim,
//	    alone, eventually suspects everyone (genuine crashes), runs
//	    solo and decides its own proposal: disagreement.
//
// The returned witness carries both traces, the totality audit of the
// attacked decision, and the prefix-identity verification.
func BuildDisagreement(cfg AdversaryConfig) (*DisagreementWitness, error) {
	cfg.defaults()
	if err := model.ValidateN(cfg.N); err != nil {
		return nil, err
	}
	props := consensus.DistinctProposals(cfg.N)
	oracle := fd.Scripted{Delay: cfg.Delay}
	if !cfg.Accurate {
		// Everyone may falsely suspect the victim, forever (a ◇S
		// detector whose stabilization lies beyond the horizon).
		oracle.Script = []fd.SuspicionInterval{
			{P: 0, Target: cfg.Victim, From: 0, To: cfg.Horizon + 1},
		}
	}
	baseCfg := func(pat *model.FailurePattern) sim.Config {
		c := sim.Config{
			N:         cfg.N,
			Automaton: consensus.SFlooding{Proposals: props},
			Oracle:    oracle,
			Pattern:   pat,
			Horizon:   cfg.Horizon,
			Seed:      cfg.Seed,
		}
		if cfg.Accurate {
			c.Policy = &sim.FairPolicy{}
		} else {
			c.Policy = &sim.DelayPolicy{Target: model.NewProcessSet(cfg.Victim), Until: cfg.Horizon + 1}
		}
		return c
	}

	// --- R1: failure-free, stop at the first decision. ---
	r1cfg := baseCfg(model.MustPattern(cfg.N))
	r1cfg.StopWhen = func(tr *sim.Trace) bool { return tr.DecisionCount(0) > 0 }
	r1, err := sim.Execute(r1cfg)
	if err != nil {
		return nil, fmt.Errorf("core: R1 failed: %w", err)
	}
	decs := r1.Decisions(0)
	if len(decs) == 0 {
		return nil, ErrNoDecision
	}
	first := decs[0]
	nonTotal := checkDecision(r1, first)
	if nonTotal == nil {
		return nil, ErrDecisionTotal
	}

	// --- R3: same seed and schedule; crashes scripted at t+1. ---
	pat := model.MustPattern(cfg.N)
	for p := 1; p <= cfg.N; p++ {
		if model.ProcessID(p) != cfg.Victim {
			pat.MustCrash(model.ProcessID(p), first.T+1)
		}
	}
	r3cfg := baseCfg(pat)
	r3cfg.StopWhen = func(tr *sim.Trace) bool {
		return tr.DecidedSet(0).Has(cfg.Victim)
	}
	r3, err := sim.Execute(r3cfg)
	if err != nil {
		return nil, fmt.Errorf("core: R3 failed: %w", err)
	}
	var victimDec sim.LocatedEvent
	found := false
	for _, d := range r3.Decisions(0) {
		if d.P == cfg.Victim {
			victimDec = d
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: victim %v never decided in R3 (horizon %d too small?)", cfg.Victim, cfg.Horizon)
	}

	return &DisagreementWitness{
		RunR1:           r1,
		RunR3:           r3,
		NonTotal:        nonTotal,
		PrefixEnd:       first.T,
		FirstDecision:   first,
		VictimDecision:  victimDec,
		PrefixIdentical: SamePrefixRun(r1, r3, first.T),
	}, nil
}

// SamePrefixRun verifies the indistinguishability step of the proof:
// through time cut, the two traces schedule the same processes, with
// the same received messages and the same failure-detector outputs.
// This is what "the failure detector is realistic, so it can behave in
// R3 as in R1 until time t" looks like operationally.
func SamePrefixRun(a, b *sim.Trace, cut model.Time) bool {
	la, lb := prefixLen(a, cut), prefixLen(b, cut)
	if la != lb {
		return false
	}
	for i := 0; i < la; i++ {
		ea, eb := a.Events[i], b.Events[i]
		if ea.P != eb.P || ea.T != eb.T || !ea.FD.Equal(eb.FD) {
			return false
		}
		if (ea.Msg == nil) != (eb.Msg == nil) {
			return false
		}
		if ea.Msg != nil && (ea.Msg.ID != eb.Msg.ID || ea.Msg.From != eb.Msg.From) {
			return false
		}
		if len(ea.Sends) != len(eb.Sends) {
			return false
		}
	}
	return true
}

func prefixLen(tr *sim.Trace, cut model.Time) int {
	n := 0
	for i := range tr.Events {
		if tr.Events[i].T > cut {
			break
		}
		n++
	}
	return n
}
