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
// processes decide differently. It keeps what it found, not the runs:
// both ran on the caller's RunContext, R3 over R1.
type DisagreementWitness struct {
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
// Both runs execute on rc, R3 over R1, so R1's steps through t are
// copied out before R3 starts. The returned witness carries the
// totality audit of the attacked decision, both decisions and the
// prefix-identity verification; no trace outlives its run.
func BuildDisagreement(rc *sim.RunContext, cfg AdversaryConfig) (*DisagreementWitness, error) {
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
	r1, err := rc.Execute(r1cfg)
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
	r1Prefix := prefixSteps(r1, first.T)

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
	r3, err := rc.Execute(r3cfg)
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
		NonTotal:        nonTotal,
		PrefixEnd:       first.T,
		FirstDecision:   first,
		VictimDecision:  victimDec,
		PrefixIdentical: samePrefix(r1Prefix, r3, first.T),
	}, nil
}

// prefixStep is what the indistinguishability step of the proof
// compares of one event: who stepped when, under which detector value,
// what it received, and how many messages it sent. It is a copy, so
// that it outlives the trace it was taken from; process IDs fit a byte
// (model.MaxProcesses).
type prefixStep struct {
	t       model.Time
	fd      model.ProcessSet
	msgID   int64
	sends   int32
	p, from uint8 // from is the received message's sender
	lambda  bool  // no message received
}

// prefixSteps copies tr's steps through time cut.
func prefixSteps(tr *sim.Trace, cut model.Time) []prefixStep {
	out := make([]prefixStep, prefixLen(tr, cut))
	for i := range out {
		ev := &tr.Events[i]
		out[i] = prefixStep{t: ev.T, fd: ev.FD, sends: int32(len(ev.Sends)), p: uint8(ev.P), lambda: ev.Msg == nil}
		if ev.Msg != nil {
			out[i].msgID, out[i].from = ev.Msg.ID, uint8(ev.Msg.From)
		}
	}
	return out
}

// samePrefix verifies the indistinguishability step of the proof:
// through time cut, tr schedules the same processes as the run the
// steps were copied from, with the same received messages and the same
// failure-detector outputs. This is what "the failure detector is
// realistic, so it can behave in R3 as in R1 until time t" looks like
// operationally.
func samePrefix(steps []prefixStep, tr *sim.Trace, cut model.Time) bool {
	if prefixLen(tr, cut) != len(steps) {
		return false
	}
	for i, s := range steps {
		ev := &tr.Events[i]
		if ev.P != model.ProcessID(s.p) || ev.T != s.t || !ev.FD.Equal(s.fd) || len(ev.Sends) != int(s.sends) {
			return false
		}
		if (ev.Msg == nil) != s.lambda {
			return false
		}
		if ev.Msg != nil && (ev.Msg.ID != s.msgID || ev.Msg.From != model.ProcessID(s.from)) {
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
