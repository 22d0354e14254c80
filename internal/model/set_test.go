package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestProcessSetBasics(t *testing.T) {
	t.Parallel()
	s := NewProcessSet(1, 3, 5)
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for _, p := range []ProcessID{1, 3, 5} {
		if !s.Has(p) {
			t.Errorf("Has(%v) = false, want true", p)
		}
	}
	for _, p := range []ProcessID{2, 4, 6} {
		if s.Has(p) {
			t.Errorf("Has(%v) = true, want false", p)
		}
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want p1/p5", s.Min(), s.Max())
	}
}

func TestProcessSetAddRemove(t *testing.T) {
	t.Parallel()
	s := EmptySet()
	s2 := s.Add(7)
	if s.Has(7) {
		t.Error("Add mutated the receiver; ProcessSet must be a value type")
	}
	if !s2.Has(7) {
		t.Error("Add(7) did not contain 7")
	}
	s3 := s2.Remove(7)
	if s3.Has(7) || !s3.IsEmpty() {
		t.Error("Remove(7) did not yield the empty set")
	}
	// Removing an absent element is a no-op.
	if !s3.Remove(9).IsEmpty() {
		t.Error("Remove of absent element changed the set")
	}
}

func TestProcessSetAlgebra(t *testing.T) {
	t.Parallel()
	a := NewProcessSet(1, 2, 3)
	b := NewProcessSet(3, 4)
	cases := []struct {
		name string
		got  ProcessSet
		want ProcessSet
	}{
		{"union", a.Union(b), NewProcessSet(1, 2, 3, 4)},
		{"intersect", a.Intersect(b), NewProcessSet(3)},
		{"diff", a.Diff(b), NewProcessSet(1, 2)},
		{"diff-rev", b.Diff(a), NewProcessSet(4)},
	}
	for _, tc := range cases {
		if !tc.got.Equal(tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if !NewProcessSet(1, 2).SubsetOf(a) {
		t.Error("SubsetOf: {p1,p2} ⊆ {p1,p2,p3} should hold")
	}
	if a.SubsetOf(b) {
		t.Error("SubsetOf: {p1,p2,p3} ⊆ {p3,p4} should not hold")
	}
}

func TestProcessSetSliceOrder(t *testing.T) {
	t.Parallel()
	s := NewProcessSet(9, 1, 4)
	want := []ProcessID{1, 4, 9}
	if got := s.Slice(); !reflect.DeepEqual(got, want) {
		t.Errorf("Slice = %v, want %v", got, want)
	}
}

func TestProcessSetForEachEarlyStop(t *testing.T) {
	t.Parallel()
	s := NewProcessSet(1, 2, 3, 4)
	var seen []ProcessID
	s.ForEach(func(p ProcessID) bool {
		seen = append(seen, p)
		return p < 2
	})
	if !reflect.DeepEqual(seen, []ProcessID{1, 2}) {
		t.Errorf("ForEach early stop visited %v, want [p1 p2]", seen)
	}
}

func TestProcessSetString(t *testing.T) {
	t.Parallel()
	cases := []struct {
		s    ProcessSet
		want string
	}{
		{EmptySet(), "{}"},
		{NewProcessSet(2), "{p2}"},
		{NewProcessSet(3, 1), "{p1,p3}"},
	}
	for _, tc := range cases {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestAllProcesses(t *testing.T) {
	t.Parallel()
	s := AllProcesses(5)
	if s.Len() != 5 || !s.Has(1) || !s.Has(5) || s.Has(6) {
		t.Errorf("AllProcesses(5) = %v", s)
	}
	if AllProcesses(MaxProcesses).Len() != MaxProcesses {
		t.Errorf("AllProcesses(64) should have 64 members")
	}
	if !AllProcesses(0).IsEmpty() {
		t.Errorf("AllProcesses(0) should be empty")
	}
}

// TestProcessSetOutOfRangePanics pins the panic and its message for
// the three methods that go through bitOf: the message is built off
// the hot path (so that they inline) but must read as it always did.
func TestProcessSetOutOfRangePanics(t *testing.T) {
	t.Parallel()
	ops := map[string]func(ProcessID){
		"Add":    func(p ProcessID) { EmptySet().Add(p) },
		"Remove": func(p ProcessID) { EmptySet().Remove(p) },
		"Has":    func(p ProcessID) { EmptySet().Has(p) },
	}
	for name, op := range ops {
		for _, p := range []ProcessID{0, -1, 65} {
			func() {
				defer func() {
					want := "model: process ID out of range [1, 64]: " + p.String()
					if got := fmt.Sprint(recover()); got != want {
						t.Errorf("%s(%v) panicked with %q, want %q", name, p, got, want)
					}
				}()
				op(p)
			}()
		}
	}
}

// randomSet draws a set over processes 1..16 for property tests.
func randomSet(r *rand.Rand) ProcessSet {
	var s ProcessSet
	for p := ProcessID(1); p <= 16; p++ {
		if r.Intn(2) == 1 {
			s = s.Add(p)
		}
	}
	return s
}

// Generate lets testing/quick draw random ProcessSets.
func (ProcessSet) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomSet(r))
}

func TestQuickSetAlgebraLaws(t *testing.T) {
	t.Parallel()
	cfg := &quick.Config{MaxCount: 500}

	// De Morgan over a fixed universe: U \ (a ∪ b) = (U \ a) ∩ (U \ b).
	u := AllProcesses(16)
	deMorgan := func(a, b ProcessSet) bool {
		left := u.Diff(a.Union(b))
		right := u.Diff(a).Intersect(u.Diff(b))
		return left.Equal(right)
	}
	if err := quick.Check(deMorgan, cfg); err != nil {
		t.Errorf("De Morgan law failed: %v", err)
	}

	// Union is commutative, associative, idempotent.
	unionLaws := func(a, b, c ProcessSet) bool {
		return a.Union(b).Equal(b.Union(a)) &&
			a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) &&
			a.Union(a).Equal(a)
	}
	if err := quick.Check(unionLaws, cfg); err != nil {
		t.Errorf("union laws failed: %v", err)
	}

	// |a| + |b| = |a ∪ b| + |a ∩ b|.
	inclusionExclusion := func(a, b ProcessSet) bool {
		return a.Len()+b.Len() == a.Union(b).Len()+a.Intersect(b).Len()
	}
	if err := quick.Check(inclusionExclusion, cfg); err != nil {
		t.Errorf("inclusion-exclusion failed: %v", err)
	}

	// Diff then union restores a superset relationship.
	diffLaw := func(a, b ProcessSet) bool {
		return a.Diff(b).Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(diffLaw, cfg); err != nil {
		t.Errorf("diff partition law failed: %v", err)
	}

	// Slice round-trips through NewProcessSet.
	roundTrip := func(a ProcessSet) bool {
		return NewProcessSet(a.Slice()...).Equal(a)
	}
	if err := quick.Check(roundTrip, cfg); err != nil {
		t.Errorf("slice round-trip failed: %v", err)
	}
}
