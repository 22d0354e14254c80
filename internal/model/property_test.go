package model

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// idList is a testing/quick generator for slices of valid process IDs
// over a system of up to MaxProcesses processes. ProcessSet's backing
// word is unexported, so properties generate ID lists and build sets
// through the public constructor — exactly the operations the
// invariants quantify over.
type idList []ProcessID

// Generate implements quick.Generator.
func (idList) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size%MaxProcesses + 1)
	ids := make(idList, n)
	for i := range ids {
		ids[i] = ProcessID(1 + r.Intn(MaxProcesses))
	}
	return reflect.ValueOf(ids)
}

func (ids idList) set() ProcessSet { return NewProcessSet(ids...) }

func quickCheck(t *testing.T, name string, f any) {
	t.Helper()
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// TestProcessSetAlgebraProperties checks the boolean-algebra laws the
// rest of the repository silently relies on: 2^Ω under ∪, ∩, \ with
// the subset order.
func TestProcessSetAlgebraProperties(t *testing.T) {
	t.Parallel()
	quickCheck(t, "add-then-has", func(ids idList, p0 uint8) bool {
		p := ProcessID(1 + int(p0)%MaxProcesses)
		return ids.set().Add(p).Has(p)
	})
	quickCheck(t, "remove-then-not-has", func(ids idList, p0 uint8) bool {
		p := ProcessID(1 + int(p0)%MaxProcesses)
		return !ids.set().Remove(p).Has(p)
	})
	quickCheck(t, "add-remove-roundtrip", func(ids idList, p0 uint8) bool {
		p := ProcessID(1 + int(p0)%MaxProcesses)
		s := ids.set().Remove(p)
		return s.Add(p).Remove(p).Equal(s)
	})
	quickCheck(t, "union-commutes", func(a, b idList) bool {
		return a.set().Union(b.set()).Equal(b.set().Union(a.set()))
	})
	quickCheck(t, "intersect-commutes", func(a, b idList) bool {
		return a.set().Intersect(b.set()).Equal(b.set().Intersect(a.set()))
	})
	quickCheck(t, "union-absorbs-both", func(a, b idList) bool {
		u := a.set().Union(b.set())
		return a.set().SubsetOf(u) && b.set().SubsetOf(u)
	})
	quickCheck(t, "intersect-within-both", func(a, b idList) bool {
		i := a.set().Intersect(b.set())
		return i.SubsetOf(a.set()) && i.SubsetOf(b.set())
	})
	quickCheck(t, "diff-disjoint-from-subtrahend", func(a, b idList) bool {
		return a.set().Diff(b.set()).Intersect(b.set()).IsEmpty()
	})
	quickCheck(t, "diff-plus-intersect-restores", func(a, b idList) bool {
		s, u := a.set(), b.set()
		return s.Diff(u).Union(s.Intersect(u)).Equal(s)
	})
	quickCheck(t, "inclusion-exclusion", func(a, b idList) bool {
		s, u := a.set(), b.set()
		return s.Union(u).Len()+s.Intersect(u).Len() == s.Len()+u.Len()
	})
	quickCheck(t, "subset-antisymmetric", func(a, b idList) bool {
		s, u := a.set(), b.set()
		if s.SubsetOf(u) && u.SubsetOf(s) {
			return s.Equal(u)
		}
		return true
	})
	quickCheck(t, "slice-sorted-distinct-roundtrip", func(a idList) bool {
		s := a.set()
		sl := s.Slice()
		if len(sl) != s.Len() {
			return false
		}
		for i, p := range sl {
			if i > 0 && sl[i-1] >= p {
				return false
			}
			if !s.Has(p) {
				return false
			}
		}
		return NewProcessSet(sl...).Equal(s)
	})
	quickCheck(t, "min-max-members", func(a idList) bool {
		s := a.set()
		if s.IsEmpty() {
			return s.Min() == 0 && s.Max() == 0
		}
		return s.Has(s.Min()) && s.Has(s.Max()) && s.Min() <= s.Max()
	})
}

// crashScript is a testing/quick generator for a random, valid crash
// schedule over a random system size.
type crashScript struct {
	n       int
	crashes map[ProcessID]Time
}

// Generate implements quick.Generator.
func (crashScript) Generate(r *rand.Rand, _ int) reflect.Value {
	n := MinProcesses + r.Intn(MaxProcesses-MinProcesses+1)
	cs := crashScript{n: n, crashes: map[ProcessID]Time{}}
	for p := 1; p <= n; p++ {
		if r.Intn(3) == 0 {
			cs.crashes[ProcessID(p)] = Time(r.Intn(1000))
		}
	}
	return reflect.ValueOf(cs)
}

func (cs crashScript) pattern() *FailurePattern {
	pat := MustPattern(cs.n)
	for p, t := range cs.crashes {
		pat.MustCrash(p, t)
	}
	return pat
}

// TestFailurePatternProperties checks the §2.1 axioms over random
// crash schedules: F is monotone (Alive never flips back after a
// crash), correct/faulty partition Ω, and prefix operations agree with
// the original pattern on their prefix.
func TestFailurePatternProperties(t *testing.T) {
	t.Parallel()
	quickCheck(t, "alive-monotone-after-crash", func(cs crashScript, t0 uint16) bool {
		pat := cs.pattern()
		probe := Time(t0)
		for p := 1; p <= cs.n; p++ {
			id := ProcessID(p)
			if !pat.Alive(id, probe) {
				// Once dead, dead at every later sampled time.
				for _, dt := range []Time{1, 7, 100, 100000} {
					if pat.Alive(id, probe+dt) {
						return false
					}
				}
			}
		}
		return true
	})
	quickCheck(t, "crashed-sets-nested", func(cs crashScript, a0, b0 uint16) bool {
		pat := cs.pattern()
		t1, t2 := Time(a0), Time(b0)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return pat.CrashedAt(t1).SubsetOf(pat.CrashedAt(t2))
	})
	quickCheck(t, "alive-complements-crashed", func(cs crashScript, t0 uint16) bool {
		pat := cs.pattern()
		probe := Time(t0)
		alive, crashed := pat.AliveAt(probe), pat.CrashedAt(probe)
		return alive.Intersect(crashed).IsEmpty() &&
			alive.Union(crashed).Equal(AllProcesses(cs.n))
	})
	quickCheck(t, "correct-faulty-partition", func(cs crashScript) bool {
		pat := cs.pattern()
		return pat.Correct().Intersect(pat.Faulty()).IsEmpty() &&
			pat.Correct().Union(pat.Faulty()).Equal(AllProcesses(cs.n)) &&
			pat.Faulty().Len() == len(cs.crashes)
	})
	quickCheck(t, "no-double-crash", func(cs crashScript) bool {
		pat := cs.pattern()
		for p := range cs.crashes {
			if pat.Crash(p, 5) == nil {
				return false // crash-stop: re-crash must be rejected
			}
		}
		return true
	})
	quickCheck(t, "prefix-clone-agrees-on-prefix", func(cs crashScript, t0 uint16) bool {
		pat := cs.pattern()
		cut := Time(t0)
		pre := pat.PrefixClone(cut)
		if !pre.SamePrefix(pat, cut) || !pat.SamePrefix(pre, cut) {
			return false
		}
		// Beyond the cut the clone is failure-free.
		return pre.CrashedAt(NoCrash - 1).Equal(pre.CrashedAt(cut))
	})
	quickCheck(t, "clone-independent", func(cs crashScript) bool {
		pat := cs.pattern()
		cp := pat.Clone()
		if !cp.Equal(pat) {
			return false
		}
		if free := AllProcesses(cs.n).Diff(pat.Faulty()); !free.IsEmpty() {
			cp.MustCrash(free.Min(), 1)
			return !cp.Equal(pat) && pat.Correct().Has(free.Min())
		}
		return true
	})
}

// patternScript is a testing/quick generator for a random sequence of
// Crash, PrefixClone and Clone calls over a random system size. A
// Crash may name a crashed process or one outside Ω, which Crash
// refuses and must leave the pattern as it was.
type patternScript struct {
	n   int
	ops []patternOp
}

type patternOp struct {
	kind int // 0 Crash(p, at), 1 PrefixClone(at), 2 Clone
	p    ProcessID
	at   Time
}

// Generate implements quick.Generator.
func (patternScript) Generate(r *rand.Rand, size int) reflect.Value {
	ps := patternScript{n: MinProcesses + r.Intn(MaxProcesses-MinProcesses+1)}
	for range 1 + r.Intn(2*size+1) {
		op := patternOp{kind: r.Intn(6) / 4, p: ProcessID(r.Intn(ps.n + 2)), at: Time(r.Intn(1000))}
		if r.Intn(8) == 0 {
			op.kind = 2
		}
		ps.ops = append(ps.ops, op)
	}
	return reflect.ValueOf(ps)
}

// scanCorrect is correct(F) read off the crash table, the reference
// the set that Correct returns is held to.
func scanCorrect(f *FailurePattern) ProcessSet {
	var s ProcessSet
	for p := 1; p <= f.n; p++ {
		if f.crash[p] == NoCrash {
			s = s.Add(ProcessID(p))
		}
	}
	return s
}

// TestCorrectMatchesScan holds the correct(F) that Crash, PrefixClone
// and Clone keep to a scan of the crash table after every call of a
// random sequence.
func TestCorrectMatchesScan(t *testing.T) {
	t.Parallel()
	quickCheck(t, "correct-is-the-scan", func(ps patternScript) bool {
		f := MustPattern(ps.n)
		for _, op := range ps.ops {
			switch op.kind {
			case 0:
				_ = f.Crash(op.p, op.at)
			case 1:
				f = f.PrefixClone(op.at)
			default:
				f = f.Clone()
			}
			if !f.Correct().Equal(scanCorrect(f)) {
				return false
			}
		}
		return true
	})
}
