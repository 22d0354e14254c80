// Package core implements the central constructions of "A Realistic
// Look At Failure Detectors" (DSN 2002):
//
//   - the totality property of §4.2 as a causal-chain audit over
//     recorded runs (Lemma 4.1's conclusion, experiment E1);
//   - the executable Lemma 4.1 adversary that forces a non-total
//     algorithm into disagreement by re-running an identical prefix
//     under an extended failure pattern (experiment E2);
//   - the reduction T(D⇒P) of Lemma 4.2: a sequence of total
//     consensus instances with [p is alive] tags piggybacked along the
//     causal order, emulating a Perfect failure detector in the
//     distributed variable output(P) (experiment E3);
//   - the TRB⇒P emulation of Proposition 5.1 (experiment E4);
//   - the §6.3 collapse argument S ∩ R ⊂ P as a witness constructor
//     (experiment E7).
package core

import (
	"fmt"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// TotalityViolation is a decision event whose causal chain misses a
// process that had not crashed at decision time — the negation of the
// §4.2 totality property.
type TotalityViolation struct {
	// Decision locates the offending decide event.
	Decision sim.LocatedEvent
	// Alive is Ω \ F(t) at decision time.
	Alive model.ProcessSet
	// Contributors are the processes with a message in the causal
	// chain (decider included).
	Contributors model.ProcessSet
	// Missing = Alive \ Contributors (non-empty).
	Missing model.ProcessSet
}

// Error renders the violation; *TotalityViolation satisfies error.
func (v *TotalityViolation) Error() string {
	if v == nil {
		return "<total>"
	}
	return fmt.Sprintf("totality violated: decision by %v at t=%d (instance %d) has no message from %v (alive %v, consulted %v)",
		v.Decision.P, v.Decision.T, v.Decision.Event.Instance, v.Missing, v.Alive, v.Contributors)
}

// CheckTotality audits every decision of the given instance (or
// sim.AnyInstance) in the trace against the §4.2 definition: the
// causal chain of a decision event at time t must contain a message
// from every process that has not crashed by t. It returns the first
// violation, or nil if every decision is total.
func CheckTotality(tr *sim.Trace, instance int) *TotalityViolation {
	for _, d := range tr.Decisions(instance) {
		if v := checkDecision(tr, d); v != nil {
			return v
		}
	}
	return nil
}

// TotalityReport audits all decisions and returns every violation.
func TotalityReport(tr *sim.Trace, instance int) []*TotalityViolation {
	var out []*TotalityViolation
	for _, d := range tr.Decisions(instance) {
		if v := checkDecision(tr, d); v != nil {
			out = append(out, v)
		}
	}
	return out
}

func checkDecision(tr *sim.Trace, d sim.LocatedEvent) *TotalityViolation {
	alive := tr.Pattern.AliveAt(d.T)
	contributors := tr.Contributors(d.EventIndex)
	missing := alive.Diff(contributors)
	if missing.IsEmpty() {
		return nil
	}
	return &TotalityViolation{
		Decision: d, Alive: alive, Contributors: contributors, Missing: missing,
	}
}
