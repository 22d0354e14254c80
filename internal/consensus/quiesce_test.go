package consensus

import (
	"fmt"
	"strings"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// quietChecked runs Rotating with every process wrapped in a
// quietCheckProc. The engine steps processes on the test's goroutine,
// so a wrapper may stop the test.
type quietChecked struct {
	t     *testing.T
	idle  *int // λ steps taken while the process declared quiescence
	inner Rotating
}

func (a quietChecked) Spawn(self model.ProcessID, n int) sim.Process {
	return &quietCheckProc{a: a, p: a.inner.Spawn(self, n).(*rcProc)}
}

// quietCheckProc holds rcProc to the sim.Quiescer contract at every λ
// step the engine gives it: when Quiescent(susp) holds, the step must
// send and emit nothing and leave the process's state as it was.
type quietCheckProc struct {
	a quietChecked
	p *rcProc
}

func (w *quietCheckProc) Step(in *sim.Message, susp model.ProcessSet, now model.Time) sim.Actions {
	if in != nil || !w.p.Quiescent(susp) {
		return w.p.Step(in, susp, now)
	}
	before := rcState(w.p)
	acts := w.p.Step(nil, susp, now)
	if after := rcState(w.p); len(acts.Sends) > 0 || len(acts.Events) > 0 || after != before {
		w.a.t.Fatalf("%v at t=%d declared quiescence under %v, then its λ step sent %d, emitted %d and changed\n  %s\nto\n  %s",
			w.p.self, now, susp, len(acts.Sends), len(acts.Events), before, after)
	}
	*w.a.idle++
	return acts
}

// rcState renders every field of an rcProc that a step can change.
func rcState(p *rcProc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "round=%d est=%v ts=%d waiting=%v news=%v done=%v relayed=%v early=%v",
		p.round, p.est, p.ts, p.waiting, p.news, p.done, p.relayed, p.earlyPropose)
	for _, r := range p.coordRounds {
		fmt.Fprintf(&b, " coord%d=%+v", r, *p.coord[r])
	}
	return b.String()
}

// TestRotatingQuiescentMeansIdle checks rcProc.Quiescent against the
// process itself, over E8's rows: every crash count, ◇S with false
// suspicions before GST, on clean and on lossy, delaying links.
func TestRotatingQuiescentMeansIdle(t *testing.T) {
	t.Parallel()
	idle := 0
	lossy := sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 15}}, DelaySteps: []sim.DelayStep{{Max: 4}}}
	for f := 0; f <= 4; f++ {
		for seed := int64(0); seed < 8; seed++ {
			for _, faults := range []sim.LinkFaults{{}, lossy} {
				pat := model.MustPattern(5)
				for i := 0; i < f; i++ {
					pat.MustCrash(model.ProcessID(i+1), model.Time(5+3*i))
				}
				_, err := sim.Execute(sim.Config{
					N: 5, Automaton: quietChecked{t: t, idle: &idle, inner: Rotating{Proposals: DistinctProposals(5)}},
					Oracle:  fd.EventuallyStrong{GST: 100, Delay: 3, Seed: uint64(seed), FalseRate: 10},
					Pattern: pat, Horizon: 2000, Seed: seed,
					Policy:   &sim.FaultyPolicy{Inner: &sim.RandomFairPolicy{}, Faults: faults},
					StopWhen: sim.CorrectDecided(0),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if idle == 0 {
		t.Fatal("no process ever declared quiescence")
	}
	t.Logf("%d λ steps taken while quiescent", idle)
}
