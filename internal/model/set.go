package model

import (
	"math/bits"
	"strings"
)

// ProcessSet is a set of processes, the range 2^Ω of the classical
// failure detectors of Chandra and Toueg. It is an immutable value
// type backed by a 64-bit word; all operations return new sets.
//
// The zero value is the empty set.
type ProcessSet struct {
	bits uint64
}

// EmptySet returns the empty process set. It is equivalent to
// ProcessSet{} and exists for readability at call sites.
func EmptySet() ProcessSet { return ProcessSet{} }

// NewProcessSet builds a set from the given process IDs.
func NewProcessSet(ps ...ProcessID) ProcessSet {
	var s ProcessSet
	for _, p := range ps {
		s = s.Add(p)
	}
	return s
}

// bitOf is a compare and a shift, so that Add, Remove and Has inline
// into the simulator's step loop. The out-of-range message is built
// only when the panic is printed or inspected: a call to a helper that
// panics would alone cost 57 of the inliner's budget of 80 and keep
// all three methods out of line.
func bitOf(p ProcessID) uint64 {
	if uint(p-1) >= MaxProcesses {
		panic(rangeError(p))
	}
	return 1 << uint(p-1)
}

// rangeError is the panic value for a process ID outside [1, 64].
type rangeError ProcessID

func (e rangeError) Error() string {
	return "model: process ID out of range [1, 64]: " + ProcessID(e).String()
}

// Add returns the set s ∪ {p}.
func (s ProcessSet) Add(p ProcessID) ProcessSet {
	return ProcessSet{bits: s.bits | bitOf(p)}
}

// Remove returns the set s \ {p}.
func (s ProcessSet) Remove(p ProcessID) ProcessSet {
	return ProcessSet{bits: s.bits &^ bitOf(p)}
}

// Has reports whether p ∈ s.
func (s ProcessSet) Has(p ProcessID) bool {
	return s.bits&bitOf(p) != 0
}

// Len returns |s|.
func (s ProcessSet) Len() int { return bits.OnesCount64(s.bits) }

// IsEmpty reports whether s = ∅.
func (s ProcessSet) IsEmpty() bool { return s.bits == 0 }

// Union returns s ∪ t.
func (s ProcessSet) Union(t ProcessSet) ProcessSet {
	return ProcessSet{bits: s.bits | t.bits}
}

// Intersect returns s ∩ t.
func (s ProcessSet) Intersect(t ProcessSet) ProcessSet {
	return ProcessSet{bits: s.bits & t.bits}
}

// Diff returns s \ t.
func (s ProcessSet) Diff(t ProcessSet) ProcessSet {
	return ProcessSet{bits: s.bits &^ t.bits}
}

// Word returns the set as its 64-bit word: bit p−1 is set iff p ∈ s.
// It is how the canonical trace encoding writes a set.
func (s ProcessSet) Word() uint64 { return s.bits }

// Equal reports whether s = t.
func (s ProcessSet) Equal(t ProcessSet) bool { return s.bits == t.bits }

// SubsetOf reports whether s ⊆ t.
func (s ProcessSet) SubsetOf(t ProcessSet) bool { return s.bits&^t.bits == 0 }

// Min returns the smallest process ID in s, or 0 if s is empty. The
// paper's P< construction and the Marabout consensus algorithm of §6.1
// both select the lowest-indexed eligible process.
func (s ProcessSet) Min() ProcessID {
	if s.bits == 0 {
		return 0
	}
	return ProcessID(bits.TrailingZeros64(s.bits) + 1)
}

// Max returns the largest process ID in s, or 0 if s is empty.
func (s ProcessSet) Max() ProcessID {
	if s.bits == 0 {
		return 0
	}
	return ProcessID(64 - bits.LeadingZeros64(s.bits))
}

// Slice returns the members of s in increasing ID order.
func (s ProcessSet) Slice() []ProcessID {
	out := make([]ProcessID, 0, s.Len())
	b := s.bits
	for b != 0 {
		p := ProcessID(bits.TrailingZeros64(b) + 1)
		out = append(out, p)
		b &= b - 1
	}
	return out
}

// ForEach calls fn for every member of s in increasing ID order,
// stopping early if fn returns false.
func (s ProcessSet) ForEach(fn func(ProcessID) bool) {
	b := s.bits
	for b != 0 {
		p := ProcessID(bits.TrailingZeros64(b) + 1)
		if !fn(p) {
			return
		}
		b &= b - 1
	}
}

// String renders the set in the paper's notation, e.g. "{p1,p3}".
func (s ProcessSet) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	parts := make([]string, 0, s.Len())
	for _, p := range s.Slice() {
		parts = append(parts, p.String())
	}
	return "{" + strings.Join(parts, ",") + "}"
}
