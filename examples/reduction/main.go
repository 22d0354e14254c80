// Command reduction demonstrates the heart of the paper — the
// transformation T(D⇒P) of Lemma 4.2: run a sequence of total
// consensus instances, piggyback "[p is alive]" tags along the causal
// order, suspect exactly the processes whose tag is missing from each
// decision, and out comes a Perfect failure detector.
//
// Run with: go run ./examples/reduction
package main

import (
	"fmt"
	"log"

	"realisticfd/internal/consensus"
	"realisticfd/internal/core"
	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

func main() {
	const (
		n       = 5
		maxInst = 20
	)
	pattern := model.MustPattern(n).
		MustCrash(2, 150).
		MustCrash(5, 400)
	fmt.Printf("pattern: %v\n", pattern)
	fmt.Printf("running %d consensus instances with alive-tag piggybacking...\n\n", maxInst)

	trace, err := sim.Execute(sim.Config{
		N: n,
		Automaton: core.Reduction{
			Proposals:    consensus.DistinctProposals(n),
			MaxInstances: maxInst,
		},
		Oracle:  fd.Perfect{Delay: 2},
		Pattern: pattern,
		Horizon: 80000,
		Seed:    13,
		Policy:  &sim.RandomFairPolicy{},
		StopWhen: func(tr *sim.Trace) bool {
			return tr.Pattern.Correct().SubsetOf(tr.DecidedSet(maxInst - 1))
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Show how output(P) evolves at p1 as decisions accumulate.
	history, err := core.ExtractEmulatedHistory(trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("output(P) at p1, sampled at its decision events:")
	prev := model.EmptySet()
	for _, s := range history.Spans(1) {
		if !s.Out.Equal(prev) {
			fmt.Printf("  t=%5d  output(P)₁ = %v\n", s.From, s.Out)
			prev = s.Out
		}
	}

	// Judge the emulated detector against P's defining properties.
	if v := fd.CheckStrongAccuracy(history, pattern); v != nil {
		log.Fatalf("emulation inaccurate: %v", v)
	}
	if v := fd.CheckStrongCompleteness(history, pattern); v != nil {
		log.Fatalf("emulation incomplete: %v", v)
	}
	fmt.Println("\nemulated detector: strong completeness ✓ strong accuracy ✓ — it is Perfect")
	fmt.Println("(Lemma 4.2: any realistic detector implementing total consensus yields P)")
}
