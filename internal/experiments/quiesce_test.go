package experiments

import (
	"fmt"
	"testing"

	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// quiescentSeeds is how many seeds of each opted-in E8 row the prefix
// test replays both ways: the 41 the sim-tables workload runs, or 8
// under the race detector, which makes the horizon runs ten times
// slower.
func quiescentSeeds() int {
	if raceEnabled {
		return 8
	}
	return 41
}

// TestQuiescentStopIsPrefix runs every row of E8's two opted-in
// specs as the table builds them, with the quiescence stop, and again
// from the embedded file as written (decided, or no stop for the lossy
// rows). The stopped run must be a step-by-step prefix of the full
// one, and the full run may decide nothing after it, so both hold the
// same decisions and no verdict can tell them apart; after a
// StopQuiescent the full run may take only empty λ steps; and no
// opted-in run may reach the horizon.
func TestQuiescentStopIsPrefix(t *testing.T) {
	for _, name := range []string{"E8-rotating", "E8-rotating-lossy"} {
		for f := 0; f <= 4; f++ {
			t.Run(fmt.Sprintf("%s/f%d", name, f), func(t *testing.T) {
				t.Parallel()
				full := baseSpec(name)
				full.Crashes = crashSpecs(f, 5, 8, 11, 14)
				scQ, scF := quiescentScenario(full), scenario.MustBuild(full)
				rcQ, rcF := sim.NewRunContext(), sim.NewRunContext()
				quiescent := 0
				for seed := int64(0); seed < int64(quiescentSeeds()); seed++ {
					q, fr := scQ.RunIn(rcQ, seed), scF.RunIn(rcF, seed)
					if q.Err != nil || fr.Err != nil {
						t.Fatalf("seed %d: %v / %v", seed, q.Err, fr.Err)
					}
					if q.Trace.Stopped == sim.StopQuiescent {
						quiescent++
					}
					if err := checkQuiescentPrefix(q.Trace, fr.Trace); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				t.Logf("%d of %d runs stopped quiescent", quiescent, quiescentSeeds())
			})
		}
	}
}

// checkQuiescentPrefix holds a run with the quiescent stop to the same
// run without it.
func checkQuiescentPrefix(q, full *sim.Trace) error {
	if q.Stopped != sim.StopCondition && q.Stopped != sim.StopQuiescent {
		return fmt.Errorf("stopped %v, want condition or quiescent", q.Stopped)
	}
	if len(q.Events) > len(full.Events) {
		return fmt.Errorf("%d steps, more than the full run's %d", len(q.Events), len(full.Events))
	}
	for i := range q.Events {
		a, b := &q.Events[i], &full.Events[i]
		if a.P != b.P || a.T != b.T || a.FD != b.FD || msgID(a.Msg) != msgID(b.Msg) ||
			len(a.Sends) != len(b.Sends) || len(a.Events) != len(b.Events) {
			return fmt.Errorf("step %d differs: %v@%d fd=%v m%d sends=%d events=%d, full run %v@%d fd=%v m%d sends=%d events=%d",
				i, a.P, a.T, a.FD, msgID(a.Msg), len(a.Sends), len(a.Events),
				b.P, b.T, b.FD, msgID(b.Msg), len(b.Sends), len(b.Events))
		}
	}
	for i := len(q.Events); i < len(full.Events); i++ {
		ev := &full.Events[i]
		if q.Stopped == sim.StopQuiescent && (ev.Msg != nil || len(ev.Sends) > 0 || len(ev.Events) > 0) {
			return fmt.Errorf("step %d after the quiescent stop at step %d is not an empty λ step", i, len(q.Events)-1)
		}
		for _, pe := range ev.Events {
			if pe.Kind == sim.KindDecide {
				return fmt.Errorf("step %d, after the stop at step %d, decides", i, len(q.Events)-1)
			}
		}
	}
	return nil
}

// msgID is the received message's ID, 0 for λ.
func msgID(m *sim.Message) int64 {
	if m == nil {
		return 0
	}
	return m.ID
}
