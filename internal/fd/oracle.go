// Package fd implements the failure-detector classes discussed in
// "A Realistic Look At Failure Detectors" (DSN 2002): Perfect (P),
// Strong (S), Eventually Strong (◇S), Eventually Perfect (◇P), the
// Scribe and Marabout examples of §3.2, and the Partially Perfect
// class P< of §6.2 — together with machine checkers for the
// completeness/accuracy properties that define the classes and for the
// realism predicate of §3.1.
//
// An Oracle is a deterministic representative of a failure-detector
// class: for each failure pattern F it yields one history H ∈ D(F),
// queried pointwise as Output(F, p, t). For deterministic oracles the
// realism property of §3.1 ("∀ similar-prefix F, F′ the detector could
// have produced the same prefix output") reduces to prefix
// measurability: the output at time t may depend only on F|≤t. Oracles
// that need non-determinism (noisy suspicions before stabilization)
// derive it from a seed mixed with (p, q, t) only — never from the
// pattern's future — so they remain realistic by construction.
package fd

import (
	"realisticfd/internal/model"
)

// Oracle is a failure-detector oracle: one representative history per
// failure pattern, queried pointwise.
//
// Implementations must be pure: two calls with the same arguments
// return the same value, and calls must not retain or mutate f.
type Oracle interface {
	// Name identifies the oracle, e.g. "P(delay=3)".
	Name() string

	// Realistic reports whether the oracle claims to satisfy the
	// realism property of §3.1. CheckRealism verifies the claim
	// empirically; Marabout answers false here and is the paper's
	// canonical non-realistic example.
	Realistic() bool

	// Output returns the suspicion set H(p, t) that process p sees at
	// time t in the oracle's history for failure pattern f.
	Output(f *model.FailurePattern, p model.ProcessID, t model.Time) model.ProcessSet
}

// Steady is an optional Oracle extension for piecewise-constant
// outputs: StableUntil(f, p, t) returns a time u ≥ t such that
// Output(f, p, t′) == Output(f, p, t) for every t′ in [t, u], judged
// against the pattern f as it stands. The guarantee is void as soon as
// a new crash is added to f — callers that cache outputs across an
// evolving pattern (the engine's per-process FD cache) must drop their
// horizons whenever the pattern gains a crash; f's crash hook reports
// exactly those additions.
//
// Implementations need not return the tightest horizon; u = t is
// always sound and is what noisy oracles return while their output is
// genuinely time-varying.
type Steady interface {
	Oracle

	// StableUntil returns the last time through which p's current
	// output is guaranteed unchanged, given no further crashes.
	StableUntil(f *model.FailurePattern, p model.ProcessID, t model.Time) model.Time
}

// nextCrashVisibility returns the earliest time strictly after t at
// which some crash in f becomes visible to a detector with uniform
// latency delay (i.e. the smallest ct+delay > t), or model.NoCrash if
// no recorded crash changes visibility after t. It scans process IDs
// directly rather than materializing Faulty().Slice() so the Steady
// fast paths stay allocation-free.
func nextCrashVisibility(f *model.FailurePattern, delay, t model.Time) model.Time {
	next := model.Time(model.NoCrash)
	for q := model.ProcessID(1); int(q) <= f.N(); q++ {
		ct, crashed := f.CrashTime(q)
		if !crashed {
			continue
		}
		if v := ct + delay; v > t && v < next {
			next = v
		}
	}
	return next
}

// noise returns a pseudorandom uint64 for the tuple (seed, p, q, t).
// model.Mix64 depends only on its argument, so the noise is measurable
// on the pattern prefix — i.e. realistic.
func noise(seed uint64, p, q model.ProcessID, t model.Time) uint64 {
	x := model.Mix64(seed ^ uint64(p)<<40 ^ uint64(q)<<20)
	return model.Mix64(x ^ uint64(t))
}

// RecordHistory samples the oracle for every process alive at each
// multiple of step up to and including horizon, producing the recorded
// history used by the class checkers. Crashed processes stop querying
// their modules, matching §2.3 (a crashed process takes no actions).
// For Steady oracles the recorder queries each module only at its
// declared change-points, replaying the cached output in between; the
// pattern is fixed for the whole recording, so the stability horizons
// never need invalidation here.
func RecordHistory(o Oracle, f *model.FailurePattern, horizon, step model.Time) *model.History {
	if step <= 0 {
		step = 1
	}
	h := model.NewHistory(f.N())
	steady, _ := o.(Steady)
	var (
		out   []model.ProcessSet
		until []model.Time
	)
	if steady != nil {
		out = make([]model.ProcessSet, f.N()+1)
		until = make([]model.Time, f.N()+1)
		for p := range until {
			until[p] = -1
		}
	}
	for t := model.Time(0); t <= horizon; t += step {
		for p := model.ProcessID(1); int(p) <= f.N(); p++ {
			if !f.Alive(p, t) {
				continue
			}
			if steady != nil {
				if t > until[p] {
					out[p] = o.Output(f, p, t)
					until[p] = steady.StableUntil(f, p, t)
				}
				h.Record(p, t, out[p])
				continue
			}
			h.Record(p, t, o.Output(f, p, t))
		}
	}
	return h
}
