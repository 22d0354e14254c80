package main

import (
	"fmt"
	"maps"
	"slices"

	"realisticfd/internal/abcast"
	"realisticfd/internal/consensus"
	"realisticfd/internal/core"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
	"realisticfd/internal/trb"
)

// audit returns the compact safety audit a sweep folds over every run:
// the properties that must hold in every run, faulty links included
// (liveness is reported by the stop counters, not asserted — a lossy
// link may legitimately starve it). nil means the protocol has none.
func audit(s scenario.Spec) func(*sim.Trace) error {
	props := consensus.DistinctProposals(s.N)
	switch s.Protocol.Kind {
	case scenario.ProtocolTRB:
		waves := s.Protocol.Waves
		return func(tr *sim.Trace) error {
			if err := trb.CheckAgreement(tr); err != nil {
				return err
			}
			if err := trb.CheckValidity(tr, waves, nil); err != nil {
				return err
			}
			return trb.CheckIntegrity(tr, nil)
		}
	case scenario.ProtocolAbcast:
		// CheckAgreement compares full sequence lengths and so fails on
		// mere horizon truncation; total order (prefix consistency) and
		// integrity are the safety core.
		script := scenario.AbcastScript(s.N)
		return func(tr *sim.Trace) error {
			if err := abcast.CheckTotalOrder(tr); err != nil {
				return err
			}
			return abcast.CheckIntegrity(tr, script)
		}
	case scenario.ProtocolSFlooding, scenario.ProtocolRotating, scenario.ProtocolMarabout, scenario.ProtocolPartialOrder:
		correctOnly := s.Protocol.Kind == scenario.ProtocolPartialOrder
		return func(tr *sim.Trace) error {
			o, err := consensus.ExtractOutcome(tr, 0)
			if err == nil && correctOnly {
				err = o.CheckAgreementAmongCorrect(tr.Pattern)
			} else if err == nil {
				err = o.CheckUniformAgreement()
			}
			if err != nil {
				return err
			}
			return o.CheckValidity(props)
		}
	}
	return nil
}

// reportRun prints the full specification audit of one run.
func reportRun(s scenario.Spec, tr *sim.Trace, verbose bool) error {
	switch s.Protocol.Kind {
	case scenario.ProtocolTRB:
		reportTRB(tr, s.Protocol.Waves, verbose)
	case scenario.ProtocolAbcast:
		reportAbcast(tr, scenario.AbcastScript(s.N), verbose)
	case scenario.ProtocolSFlooding, scenario.ProtocolRotating, scenario.ProtocolMarabout, scenario.ProtocolPartialOrder:
		return reportConsensus(tr, consensus.DistinctProposals(s.N), verbose)
	default:
		fmt.Printf("  no audit for protocol %s\n", s.Protocol.Kind)
	}
	return nil
}

func reportAbcast(tr *sim.Trace, sc map[model.ProcessID][]string, verbose bool) {
	report("total order", abcast.CheckTotalOrder(tr))
	report("agreement", abcast.CheckAgreement(tr))
	report("validity", abcast.CheckValidity(tr, sc))
	report("integrity", abcast.CheckIntegrity(tr, sc))
	if verbose {
		seqs := abcast.Sequences(tr)
		for _, p := range slices.Sorted(maps.Keys(seqs)) {
			fmt.Printf("\n%v delivered:", p)
			for _, d := range seqs[p] {
				fmt.Printf(" %v", d.ID)
			}
		}
		fmt.Println()
	}
}

func reportConsensus(tr *sim.Trace, props consensus.Proposals, verbose bool) error {
	o, err := consensus.ExtractOutcome(tr, 0)
	if err != nil {
		return err
	}
	pat := tr.Pattern
	for p := model.ProcessID(1); int(p) <= tr.N; p++ {
		if v, ok := o.Decided[p]; ok {
			fmt.Printf("  %v decided %q at t=%d\n", p, v, o.DecidedAt[p])
		} else if pat.Correct().Has(p) {
			fmt.Printf("  %v did not decide (blocked)\n", p)
		} else {
			fmt.Printf("  %v crashed undecided\n", p)
		}
	}
	fmt.Println()
	report("termination", o.CheckTermination(pat))
	report("uniform agreement", o.CheckUniformAgreement())
	report("validity", o.CheckValidity(props))
	if v := core.CheckTotality(tr, 0); v == nil {
		fmt.Println("  totality (§4.2)     ✓ every decision consulted every live process")
	} else {
		fmt.Printf("  totality (§4.2)     ✗ %v\n", v)
	}
	if verbose {
		fmt.Println("\ndecision events:")
		for _, d := range tr.Decisions(0) {
			fmt.Printf("  t=%5d %v → %v (causal contributors %v)\n",
				d.T, d.P, d.Event.Value, tr.Contributors(d.EventIndex))
		}
	}
	return nil
}

func reportTRB(tr *sim.Trace, waves int, verbose bool) {
	report("termination", trb.CheckTermination(tr, waves))
	report("agreement", trb.CheckAgreement(tr))
	report("validity", trb.CheckValidity(tr, waves, nil))
	report("integrity", trb.CheckIntegrity(tr, nil))
	report("nil-accuracy", trb.CheckNilAccuracy(tr))
	if verbose {
		fmt.Println("\ndeliveries at p1:")
		deliveries := trb.Deliveries(tr)
		for _, id := range slices.Sorted(maps.Keys(deliveries)) {
			init, k := trb.SplitInstanceID(id)
			if d, ok := deliveries[id][1]; ok {
				fmt.Printf("  (%v,%d) → %q\n", init, k, d.Value)
			}
		}
	}
}

func report(name string, err error) {
	if err != nil {
		fmt.Printf("  %-19s ✗ %v\n", name, err)
		return
	}
	fmt.Printf("  %-19s ✓\n", name)
}
