// Package consensus implements the consensus algorithms discussed in
// "A Realistic Look At Failure Detectors" (DSN 2002) as sim.Automaton
// values, together with machine checkers for the problem
// specification of §4:
//
//   - SFlooding: the Chandra-Toueg S-based flooding algorithm. It
//     tolerates any number of crashes, satisfies *uniform* agreement,
//     and — run with a realistic, accurate detector — is *total* in
//     the sense of §4.2 (E1). Run with an inaccurate ◇S-style
//     detector it loses totality, which the Lemma 4.1 adversary (E2)
//     exploits to force disagreement.
//   - Rotating: the Chandra-Toueg ◇S-based rotating-coordinator
//     algorithm. It consults only majorities, is deliberately not
//     total, and requires a majority of correct processes for
//     termination (E8).
//   - MaraboutConsensus: the trivial algorithm of §6.1 that decides
//     with unbounded crashes using the non-realistic Marabout
//     detector.
//   - PartialOrder: the P<-based algorithm of §6.2 solving
//     correct-restricted (non-uniform) consensus; E6 exhibits its
//     uniform-agreement violations.
//
// All algorithms treat instance 0 as their protocol instance; the
// multi-instance sequencing needed by the T(D⇒P) reduction lives in
// package core.
package consensus

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"realisticfd/internal/model"
)

// Value is a proposable consensus value.
type Value string

// NoValue is the zero Value; algorithms never decide it.
const NoValue Value = ""

// valueBoxes boxes Values for decision events, handing out again the
// box of any of the last values it boxed: a process that decides among
// a few values run after run boxes each once. A box is never written
// after boxing, so it may outlive the run that made it.
type valueBoxes struct {
	ring [16]any
	next int
}

func (b *valueBoxes) box(v Value) any {
	for _, x := range b.ring {
		if y, ok := x.(Value); ok && y == v {
			return x
		}
	}
	x := any(v)
	b.ring[b.next] = x
	b.next = (b.next + 1) % len(b.ring)
	return x
}

// Proposals maps each process to its initial proposal.
type Proposals map[model.ProcessID]Value

// DistinctProposals gives every process its own value "v<i>" — the
// worst case for agreement checking.
func DistinctProposals(n int) Proposals {
	props := make(Proposals, n)
	for p := 1; p <= n; p++ {
		props[model.ProcessID(p)] = Value("v" + strconv.Itoa(p))
	}
	return props
}

// Validate checks that every process in a system of n has a non-empty
// proposal.
func (props Proposals) Validate(n int) error {
	for p := 1; p <= n; p++ {
		v, ok := props[model.ProcessID(p)]
		if !ok || v == NoValue {
			return fmt.Errorf("consensus: %v has no proposal", model.ProcessID(p))
		}
	}
	return nil
}

// String renders proposals in process order.
func (props Proposals) String() string {
	ids := make([]int, 0, len(props))
	for p := range props {
		ids = append(ids, int(p))
	}
	sort.Ints(ids)
	parts := make([]string, 0, len(ids))
	for _, p := range ids {
		parts = append(parts, fmt.Sprintf("%v=%s", model.ProcessID(p), props[model.ProcessID(p)]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}
