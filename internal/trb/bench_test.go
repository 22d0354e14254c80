package trb

import (
	"fmt"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

func BenchmarkTRBWave(b *testing.B) {
	for _, waves := range []int{1, 4} {
		b.Run(fmt.Sprintf("Waves=%d", waves), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pat := model.MustPattern(5).MustCrash(2, 30)
				tr, err := sim.Execute(sim.Config{
					N: 5, Automaton: Broadcast{Waves: waves}, Oracle: fd.Perfect{Delay: 2},
					Pattern: pat, Horizon: 60000, Seed: int64(i),
					StopWhen: AllDelivered(waves),
				})
				if err != nil {
					b.Fatal(err)
				}
				if tr.Stopped != sim.StopCondition {
					b.Fatal("wave incomplete")
				}
			}
		})
	}
}

func BenchmarkDeliveriesExtraction(b *testing.B) {
	tr, err := sim.Execute(sim.Config{
		N: 5, Automaton: Broadcast{Waves: 3}, Oracle: fd.Perfect{Delay: 2},
		Pattern: model.MustPattern(5), Horizon: 60000, Seed: 1,
		StopWhen: AllDelivered(3),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Deliveries(tr)
	}
}
