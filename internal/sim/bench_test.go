package sim

import (
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// noisyAutomaton keeps the message buffer busy: every process
// re-broadcasts on every 8th received message.
type noisyAutomaton struct{}

type noisyProc struct {
	self model.ProcessID
	n    int
	seen int
	sent bool
}

func (noisyAutomaton) Spawn(self model.ProcessID, n int) Process {
	return &noisyProc{self: self, n: n}
}

func (p *noisyProc) Step(in *Message, _ model.ProcessSet, _ model.Time) Actions {
	var acts Actions
	if !p.sent {
		p.sent = true
		acts.Sends = Broadcast(p.n, "seed")
	}
	if in != nil {
		p.seen++
		if p.seen%8 == 0 {
			acts.Sends = Broadcast(p.n, "echo")
		}
	}
	return acts
}

func BenchmarkEngineSteps(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Execute(Config{
			N: 8, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Horizon: 2000, Seed: int64(i), Policy: &RandomFairPolicy{},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCausalPast(b *testing.B) {
	tr, err := Execute(Config{
		N: 8, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 4000, Seed: 3, Policy: &RandomFairPolicy{},
	})
	if err != nil {
		b.Fatal(err)
	}
	last := len(tr.Events) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.CausalPast(last)
	}
}

func BenchmarkContributors(b *testing.B) {
	tr, err := Execute(Config{
		N: 8, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 4000, Seed: 3, Policy: &RandomFairPolicy{},
	})
	if err != nil {
		b.Fatal(err)
	}
	last := len(tr.Events) - 1
	_ = tr.Contributors(last) // warm the trace's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Contributors(last)
	}
}
