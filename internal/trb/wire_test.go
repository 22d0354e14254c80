package trb

import (
	"fmt"
	"testing"

	"realisticfd/internal/consensus"
	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// TestWireEncodesEveryEmittedPayload runs S-flooding standalone and
// hosted inside TRB and puts every S-flooding payload either run sent
// through the live codec: each must encode, decode and render as the
// original did, and both payload kinds must occur on both paths. A
// payload type the codec misses would make a live node panic.
func TestWireEncodesEveryEmittedPayload(t *testing.T) {
	t.Parallel()
	run := func(a sim.Automaton, stop func(*sim.Trace) bool) *sim.Trace {
		tr, err := sim.Execute(sim.Config{
			N: 5, Automaton: a, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(5).MustCrash(2, 40), Horizon: 60000, Seed: 3,
			Policy: &sim.RandomFairPolicy{}, StopWhen: stop,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for name, tr := range map[string]*sim.Trace{
		"standalone":    run(consensus.SFlooding{Proposals: consensus.DistinctProposals(5)}, sim.CorrectDecided(0)),
		"hosted in TRB": run(Broadcast{Waves: 2}, AllDelivered(2)),
	} {
		kinds := map[string]int{}
		for _, ev := range tr.Events {
			for _, m := range ev.Sends {
				payload := m.Payload
				switch env := payload.(type) {
				case trbValue:
					continue
				case *trbCons:
					payload = env.Inner
				}
				b, err := consensus.EncodeWire(payload)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				back, err := consensus.DecodeWire(b)
				if err != nil {
					t.Fatalf("%s: %s does not decode: %v", name, b, err)
				}
				if got, want := fmt.Sprint(back), fmt.Sprint(payload); got != want {
					t.Fatalf("%s: %s came back as %s", name, want, got)
				}
				kinds[fmt.Sprintf("%T", payload)]++
			}
		}
		if len(kinds) != 2 {
			t.Errorf("%s: sent %v, want flood and vector payloads", name, kinds)
		}
	}
}
