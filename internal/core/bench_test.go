package core

import (
	"fmt"
	"testing"

	"realisticfd/internal/consensus"
	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// BenchmarkReductionDepth is the ablation for the T(D⇒P) sequence
// length (DESIGN.md §6): emulation cost grows linearly with the
// instance budget, while the completeness horizon it certifies grows
// with it — the knob a user of the reduction actually turns.
func BenchmarkReductionDepth(b *testing.B) {
	for _, depth := range []int{4, 8, 16, 32} {
		depth := depth
		b.Run(fmt.Sprintf("instances=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pat := model.MustPattern(5).MustCrash(2, 150)
				tr, err := sim.Execute(sim.Config{
					N: 5,
					Automaton: Reduction{
						Proposals:    consensus.DistinctProposals(5),
						MaxInstances: depth,
					},
					Oracle: fd.Perfect{Delay: 2}, Pattern: pat,
					Horizon: 200000, Seed: int64(i),
					StopWhen: reductionDone(depth),
				})
				if err != nil {
					b.Fatal(err)
				}
				if tr.Stopped != sim.StopCondition {
					b.Fatal("reduction incomplete")
				}
			}
		})
	}
}

// BenchmarkTotalityAudit times the causal-chain audit on a finished
// consensus run.
func BenchmarkTotalityAudit(b *testing.B) {
	tr, err := sim.Execute(sim.Config{
		N: 5, Automaton: consensus.SFlooding{Proposals: consensus.DistinctProposals(5)},
		Oracle: fd.Perfect{Delay: 2}, Pattern: model.MustPattern(5).MustCrash(3, 40),
		Horizon: 20000, Seed: 1, Policy: &sim.RandomFairPolicy{},
		StopWhen: sim.CorrectDecided(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := CheckTotality(tr, 0); v != nil {
			b.Fatal(v)
		}
	}
}

// BenchmarkAdversary times one full Lemma 4.1 construction (two runs
// plus the prefix comparison).
func BenchmarkAdversary(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := BuildDisagreement(AdversaryConfig{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !w.Disagree() {
			b.Fatal("no disagreement")
		}
	}
}
