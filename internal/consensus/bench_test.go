package consensus

import (
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

func benchConsensus(b *testing.B, aut sim.Automaton, oracle fd.Oracle) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pat := model.MustPattern(5).MustCrash(2, 40)
		tr, err := sim.Execute(sim.Config{
			N: 5, Automaton: aut, Oracle: oracle, Pattern: pat,
			Horizon: 20000, Seed: int64(i),
			Policy: &sim.RandomFairPolicy{}, StopWhen: sim.CorrectDecided(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Stopped != sim.StopCondition {
			b.Fatal("consensus did not finish")
		}
	}
}

func BenchmarkSFloodingRun(b *testing.B) {
	benchConsensus(b, SFlooding{Proposals: DistinctProposals(5)}, fd.Perfect{Delay: 2})
}

func BenchmarkRotatingRun(b *testing.B) {
	benchConsensus(b, Rotating{Proposals: DistinctProposals(5)},
		fd.EventuallyStrong{GST: 50, Delay: 2, Seed: 3, FalseRate: 10})
}

// BenchmarkRotatingBlocked is one of E8's blocked rotating runs: f = 3
// of n = 5 crash, so every wait for a majority blocks, and the run goes
// to the horizon with no decision. Nearly every step is idle. Like E8,
// it reuses one RunContext, so the 20 000-step trace is not allocated
// and cleared per run.
func BenchmarkRotatingBlocked(b *testing.B) {
	b.ReportAllocs()
	rc := sim.NewRunContext()
	for i := 0; i < b.N; i++ {
		pat := model.MustPattern(5).MustCrash(1, 5).MustCrash(2, 8).MustCrash(3, 11)
		tr, err := rc.Execute(sim.Config{
			N: 5, Automaton: Rotating{Proposals: DistinctProposals(5)},
			Oracle:  fd.EventuallyStrong{GST: 100, Delay: 3, Seed: uint64(i), FalseRate: 10},
			Pattern: pat, Horizon: 20000, Seed: int64(i),
			Policy: &sim.RandomFairPolicy{}, StopWhen: sim.CorrectDecided(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Stopped != sim.StopHorizon || !tr.DecidedSet(0).IsEmpty() {
			b.Fatalf("stopped %v with %v decided; want the horizon and no decision", tr.Stopped, tr.DecidedSet(0))
		}
	}
}

func BenchmarkPartialOrderRun(b *testing.B) {
	benchConsensus(b, PartialOrder{Proposals: DistinctProposals(5)}, fd.PartiallyPerfect{Delay: 2})
}

func BenchmarkMaraboutRun(b *testing.B) {
	benchConsensus(b, MaraboutConsensus{Proposals: DistinctProposals(5)}, fd.Marabout{})
}
