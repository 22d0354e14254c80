package harness

import (
	"fmt"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// benchAutomaton is scenario.BusyAutomaton's workload, which the
// sim-sweep-n64 benchmark runs (scenario imports harness, so the
// test keeps its own copy): one seed broadcast per process, an echo
// broadcast every 8th receipt.
type benchAutomaton struct{}

type benchProc struct {
	n    int
	seen int
	sent bool
}

func (benchAutomaton) Spawn(_ model.ProcessID, n int) sim.Process {
	return &benchProc{n: n}
}

func (p *benchProc) Step(in *sim.Message, _ model.ProcessSet, _ model.Time) sim.Actions {
	var acts sim.Actions
	if !p.sent {
		p.sent = true
		acts.Sends = sim.Broadcast(p.n, "seed")
	}
	if in != nil {
		p.seen++
		if p.seen%8 == 0 {
			acts.Sends = sim.Broadcast(p.n, "echo")
		}
	}
	return acts
}

func benchScenario() Scenario {
	return Scenario{
		Name: "bench-n64", N: 64,
		Automaton: benchAutomaton{},
		Oracle:    fd.Perfect{Delay: 2},
		Horizon:   2000,
		Pattern: func() *model.FailurePattern {
			return model.MustPattern(64).MustCrash(7, 300).MustCrash(21, 900)
		},
		Policy: func() sim.Policy { return &sim.RandomFairPolicy{} },
	}
}

// BenchmarkSweepRetained is the memory-heavy baseline: every trace of
// the sweep is retained until the whole batch returns.
func BenchmarkSweepRetained(b *testing.B) {
	sc := benchScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs := SeedMap(Seeds(32), 0, retained(sc))
		if len(rs) != 32 {
			b.Fatalf("%d results", len(rs))
		}
	}
}

// BenchmarkSweepStreaming is the same sweep folded through streaming
// run contexts: no trace outlives its run. Iteration i folds seeds
// [32i, 32i+32), so no seed comes back, as in a real sweep.
func BenchmarkSweepStreaming(b *testing.B) {
	sc := benchScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seeds := SeedRange{From: int64(i) * 32, To: int64(i+1) * 32}
		st := Reduce(sc, seeds, 0, SweepReducer())
		if st.Runs != 32 || st.Errors != 0 {
			b.Fatal(fmt.Sprintf("stats %+v", st))
		}
	}
}
