package consensus

import (
	"fmt"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// Outcome is the consensus-relevant content of one trace and instance:
// who decided what, when.
type Outcome struct {
	Instance  int
	Decided   map[model.ProcessID]Value
	DecidedAt map[model.ProcessID]model.Time
}

// ExtractOutcome collects the decisions of one instance from a trace.
// It fails if a process decides twice or a decision carries a payload
// that is not a Value — both are protocol bugs, not spec violations.
func ExtractOutcome(tr *sim.Trace, instance int) (*Outcome, error) {
	o := &Outcome{
		Instance:  instance,
		Decided:   make(map[model.ProcessID]Value),
		DecidedAt: make(map[model.ProcessID]model.Time),
	}
	for _, d := range tr.Decisions(instance) {
		v, ok := d.Event.Value.(Value)
		if !ok {
			return nil, fmt.Errorf("consensus: %v decided non-Value payload %T at t=%d", d.P, d.Event.Value, d.T)
		}
		if prev, dup := o.Decided[d.P]; dup {
			return nil, fmt.Errorf("consensus: %v decided twice (%q then %q)", d.P, prev, v)
		}
		o.Decided[d.P] = v
		o.DecidedAt[d.P] = d.T
	}
	return o, nil
}

// CheckTermination verifies that every correct process of f decided.
func (o *Outcome) CheckTermination(f *model.FailurePattern) error {
	for _, p := range f.Correct().Slice() {
		if _, ok := o.Decided[p]; !ok {
			return fmt.Errorf("consensus termination violated: correct %v never decided (instance %d)", p, o.Instance)
		}
	}
	return nil
}

// CheckUniformAgreement verifies that no two processes decided
// differently — the uniform variant the paper adopts by default
// (footnote 1): disagreement is precluded even if one of the deciders
// ends up faulty.
func (o *Outcome) CheckUniformAgreement() error {
	var ref Value
	var refP model.ProcessID
	for p := model.ProcessID(1); ; p++ {
		if int(p) > model.MaxProcesses {
			return nil
		}
		if v, ok := o.Decided[p]; ok {
			if ref == NoValue {
				ref, refP = v, p
			} else if v != ref {
				return fmt.Errorf("uniform agreement violated: %v decided %q but %v decided %q",
					refP, ref, p, v)
			}
		}
	}
}

// CheckAgreementAmongCorrect verifies the correct-restricted variant
// of §6.2: agreement is required only among processes that never
// crash.
func (o *Outcome) CheckAgreementAmongCorrect(f *model.FailurePattern) error {
	var ref Value
	var refP model.ProcessID
	for _, p := range f.Correct().Slice() {
		v, ok := o.Decided[p]
		if !ok {
			continue
		}
		if ref == NoValue {
			ref, refP = v, p
		} else if v != ref {
			return fmt.Errorf("correct-restricted agreement violated: correct %v decided %q but correct %v decided %q",
				refP, ref, p, v)
		}
	}
	return nil
}

// CheckValidity verifies every decided value was proposed by some
// process. Processes are checked in ID order, so a violation names the
// lowest violating process.
func (o *Outcome) CheckValidity(props Proposals) error {
	proposed := make(map[Value]bool, len(props))
	// order-free: fills a set.
	for _, v := range props {
		proposed[v] = true
	}
	for p := model.ProcessID(1); int(p) <= model.MaxProcesses; p++ {
		if v, ok := o.Decided[p]; ok && !proposed[v] {
			return fmt.Errorf("validity violated: %v decided %q, which nobody proposed", p, v)
		}
	}
	return nil
}

// CheckUniformSpec runs termination, uniform agreement and validity —
// the full specification of §4.
func (o *Outcome) CheckUniformSpec(f *model.FailurePattern, props Proposals) error {
	if err := o.CheckTermination(f); err != nil {
		return err
	}
	if err := o.CheckUniformAgreement(); err != nil {
		return err
	}
	return o.CheckValidity(props)
}

// DecidedValue returns the common decided value when uniform agreement
// holds and at least one process decided: the value of the lowest
// deciding process.
func (o *Outcome) DecidedValue() (Value, bool) {
	for p := model.ProcessID(1); int(p) <= model.MaxProcesses; p++ {
		if v, ok := o.Decided[p]; ok {
			return v, true
		}
	}
	return NoValue, false
}
