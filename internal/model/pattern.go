package model

import (
	"fmt"
	"sort"
	"strings"
)

// FailurePattern is the function F : Φ → 2^Ω of §2.1: F(t) is the set
// of processes that have crashed through time t. Failures are
// permanent (crash-stop, no recovery), so F is monotonically
// non-decreasing under ⊆.
//
// A FailurePattern is built incrementally: the adversarial scheduler of
// the Lemma 4.1 experiment extends a pattern online, which is sound
// because realistic detectors only ever consult the prefix F|≤now.
type FailurePattern struct {
	n     int
	crash [MaxProcesses + 1]Time // crash[p] = crash time, NoCrash if correct
	// correct is correct(F), the p with crash[p] = NoCrash, kept by every
	// write to crash so that Correct, which the simulator's stop
	// predicates read every step, is a load.
	correct ProcessSet
	// onCrash, when non-nil, observes every successful Crash call. The
	// simulator registers a hook here so it can keep its cached alive
	// set current without rescanning the pattern every tick; the hook
	// is an observer only and must not mutate the pattern.
	onCrash CrashHook
}

// CrashHook observes the crashes added to a FailurePattern. It is an
// interface, not a func, so that the engine registers its run handle
// without allocating a closure per run.
type CrashHook interface {
	NoteCrash(p ProcessID, t Time)
}

// NewFailurePattern returns the failure-free pattern over n processes.
func NewFailurePattern(n int) (*FailurePattern, error) {
	if err := ValidateN(n); err != nil {
		return nil, err
	}
	f := &FailurePattern{n: n, correct: AllProcesses(n)}
	for p := 1; p <= n; p++ {
		f.crash[p] = NoCrash
	}
	return f, nil
}

// MustPattern is NewFailurePattern for tests and examples with a known
// good n; it panics on error.
func MustPattern(n int) *FailurePattern {
	f, err := NewFailurePattern(n)
	if err != nil {
		panic(err)
	}
	return f
}

// N returns the system size |Ω|.
func (f *FailurePattern) N() int { return f.n }

// Crash records that p crashes at time t: p performs no action at any
// time ≥ t. Crashing an already-crashed process or an out-of-range ID
// is an error.
func (f *FailurePattern) Crash(p ProcessID, t Time) error {
	if p < 1 || int(p) > f.n {
		return fmt.Errorf("model: crash of %v: not in Ω (n = %d)", p, f.n)
	}
	if t < 0 || t >= NoCrash {
		return fmt.Errorf("model: crash of %v at invalid time %d", p, t)
	}
	if f.crash[p] != NoCrash {
		return fmt.Errorf("model: %v already crashed at %d (crash-stop: no recovery)", p, f.crash[p])
	}
	f.crash[p] = t
	f.correct = f.correct.Remove(p)
	if f.onCrash != nil {
		f.onCrash.NoteCrash(p, t)
	}
	return nil
}

// SetCrashHook registers h to be told of every successful Crash,
// replacing any previous hook; nil unregisters. At most one hook is
// held at a time — the intended owner is the engine of the run
// currently driving the pattern, which registers on start and
// unregisters when the run ends.
func (f *FailurePattern) SetCrashHook(h CrashHook) {
	f.onCrash = h
}

// MustCrash is Crash that panics on error, for tests and examples.
func (f *FailurePattern) MustCrash(p ProcessID, t Time) *FailurePattern {
	if err := f.Crash(p, t); err != nil {
		panic(err)
	}
	return f
}

// CrashTime returns p's crash time and true, or (NoCrash, false) if p
// is correct in F.
func (f *FailurePattern) CrashTime(p ProcessID) (Time, bool) {
	if p < 1 || int(p) > f.n {
		return NoCrash, false
	}
	if f.crash[p] == NoCrash {
		return NoCrash, false
	}
	return f.crash[p], true
}

// CrashedAt returns F(t), the set of processes crashed through time t.
func (f *FailurePattern) CrashedAt(t Time) ProcessSet {
	var s ProcessSet
	for p := 1; p <= f.n; p++ {
		if f.crash[p] <= t {
			s = s.Add(ProcessID(p))
		}
	}
	return s
}

// AliveAt returns Ω \ F(t), the processes that have not crashed
// through time t.
func (f *FailurePattern) AliveAt(t Time) ProcessSet {
	return AllProcesses(f.n).Diff(f.CrashedAt(t))
}

// Alive reports whether p ∉ F(t).
func (f *FailurePattern) Alive(p ProcessID, t Time) bool {
	if p < 1 || int(p) > f.n {
		return false
	}
	return f.crash[p] > t
}

// Correct returns correct(F), the set of processes that never crash.
func (f *FailurePattern) Correct() ProcessSet { return f.correct }

// Faulty returns faulty(F) = Ω \ correct(F): the processes that crash
// at some time. This is the (future-reading) output of the Marabout
// detector of §3.2.2.
func (f *FailurePattern) Faulty() ProcessSet {
	return AllProcesses(f.n).Diff(f.Correct())
}

// Clone returns an independent copy of F. Crash hooks are not copied:
// they belong to the run driving the original pattern.
func (f *FailurePattern) Clone() *FailurePattern {
	cp := *f
	cp.onCrash = nil
	return &cp
}

// PrefixClone returns a copy of F truncated at time t: crashes at times
// ≤ t are kept, later crashes are erased. The result is the canonical
// representative of F's equivalence class "patterns agreeing with F
// through t" used by the realism predicate of §3.1.
func (f *FailurePattern) PrefixClone(t Time) *FailurePattern {
	cp := *f
	cp.onCrash = nil
	for p := 1; p <= f.n; p++ {
		if cp.crash[p] > t {
			cp.crash[p] = NoCrash
			cp.correct = cp.correct.Add(ProcessID(p))
		}
	}
	return &cp
}

// SamePrefix reports whether F and F' agree through time t, i.e.
// ∀ t1 ≤ t : F(t1) = F'(t1). This is the antecedent of the realism
// predicate of §3.1.
func (f *FailurePattern) SamePrefix(g *FailurePattern, t Time) bool {
	if f.n != g.n {
		return false
	}
	for p := 1; p <= f.n; p++ {
		ft, gt := f.crash[p], g.crash[p]
		fIn, gIn := ft <= t, gt <= t
		if fIn != gIn {
			return false
		}
		if fIn && ft != gt {
			return false
		}
	}
	return true
}

// Equal reports whether F and F' are the same pattern.
func (f *FailurePattern) Equal(g *FailurePattern) bool {
	if f.n != g.n {
		return false
	}
	for p := 1; p <= f.n; p++ {
		if f.crash[p] != g.crash[p] {
			return false
		}
	}
	return true
}

// String lists the crashes in time order, e.g.
// "F{n=5; p2@10, p4@30}". The failure-free pattern prints "F{n=5; ∅}".
func (f *FailurePattern) String() string {
	type ev struct {
		p ProcessID
		t Time
	}
	var evs []ev
	for p := 1; p <= f.n; p++ {
		if f.crash[p] != NoCrash {
			evs = append(evs, ev{ProcessID(p), f.crash[p]})
		}
	}
	if len(evs) == 0 {
		return fmt.Sprintf("F{n=%d; ∅}", f.n)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].p < evs[j].p
	})
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = fmt.Sprintf("%v@%d", e.p, e.t)
	}
	return fmt.Sprintf("F{n=%d; %s}", f.n, strings.Join(parts, ", "))
}
