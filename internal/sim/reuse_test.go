package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// churnAutomaton broadcasts a new pointer payload on every step and
// records a protocol event carrying it, so that a run of it leaves a
// value in every Message and EventRecord slot it touches that no other
// config writes.
type churnAutomaton struct{}

type churnProc struct {
	self  model.ProcessID
	n     int
	sends []sim.Send
}

func (churnAutomaton) Spawn(self model.ProcessID, n int) sim.Process {
	return &churnProc{self: self, n: n}
}

func (p *churnProc) Step(_ *sim.Message, _ model.ProcessSet, t model.Time) sim.Actions {
	label := &labelled{fmt.Sprintf("%v@%d", p.self, t)}
	p.sends = sim.AppendOthers(p.sends[:0], p.n, p.self, label)
	return sim.Actions{
		Sends:  p.sends,
		Events: []sim.ProtocolEvent{{Kind: sim.KindDeliver, Instance: int(t), Value: label}},
	}
}

// churnShape is a dirtying run: n processes, one crash, the churn
// automaton under 20 % loss and bounded extra delay.
func churnShape(n int, horizon model.Time, seed int64) sim.Config {
	return sim.Config{
		N: n, Automaton: churnAutomaton{}, Oracle: fd.Perfect{Delay: 3},
		Pattern: model.MustPattern(n).MustCrash(2, horizon/2),
		Horizon: horizon, Seed: seed,
		Policy: &sim.FaultyPolicy{Inner: &sim.RandomFairPolicy{},
			Faults: sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 20}}, DelaySteps: []sim.DelayStep{{Max: 3}}}},
	}
}

// sentCount is the number of messages a trace's steps sent.
func sentCount(tr *sim.Trace) int {
	sent := 0
	for i := range tr.Events {
		sent += len(tr.Events[i].Sends)
	}
	return sent
}

// TestReusedContextMatchesFresh holds a run on a reused RunContext to
// a fresh run of the same config, field by field. The engine writes
// each step into trace and arena slots it does not clear between runs,
// so the context is first dirtied: a larger run of another config
// grows every slot the run under test will take and fills it, and
// ScribbleRecycled then overwrites them all with values no run writes.
// A field the engine failed to write would keep that value, where the
// fresh run has a zero.
func TestReusedContextMatchesFresh(t *testing.T) {
	consensus, err := scenario.Parse([]byte(`{
		"schema": "fdspec/v3", "name": "reuse-consensus", "n": 8, "horizon": 4000,
		"seeds": {"from": 0, "to": 1},
		"protocol": {"kind": "sflooding"},
		"oracle": {"kind": "perfect", "delay": 2},
		"crashes": [{"process": 2, "at": 60}],
		"plan": [{"at": 0, "action": "delay", "bound": 4}],
		"stop": {"kind": "decided"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.MustBuild(consensus)
	cases := []struct {
		name  string
		dirty sim.Config
		run   func() sim.Config
	}{
		{"n64 broadcast", churnShape(60, 2500, 17), func() sim.Config { return benchShape(1_000_000) }},
		{"n8 sflooding", churnShape(6, 600, 4), func() sim.Config { return sc.Config(3) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fresh, err := sim.Execute(c.run())
			if err != nil {
				t.Fatal(err)
			}
			rc := sim.NewRunContext()
			dirty, err := rc.Execute(c.dirty)
			if err != nil {
				t.Fatal(err)
			}
			if len(dirty.Events) < len(fresh.Events) || sentCount(dirty) < sentCount(fresh) {
				t.Fatalf("dirtying run too small: %d events and %d sends, the run under test has %d and %d",
					len(dirty.Events), sentCount(dirty), len(fresh.Events), sentCount(fresh))
			}
			sim.ScribbleRecycled(rc)
			reused, err := rc.Execute(c.run())
			if err != nil {
				t.Fatal(err)
			}

			if len(reused.Events) != len(fresh.Events) {
				t.Fatalf("reused context: %d events, fresh %d", len(reused.Events), len(fresh.Events))
			}
			for i := range fresh.Events {
				got, want := &reused.Events[i], &fresh.Events[i]
				if len(got.Sends) != len(want.Sends) {
					t.Fatalf("event %d: %d sends on the reused context, %d on a fresh one", i, len(got.Sends), len(want.Sends))
				}
				for j, m := range want.Sends {
					if !reflect.DeepEqual(got.Sends[j], m) {
						t.Fatalf("event %d, send %d: %+v on the reused context, %+v on a fresh one", i, j, *got.Sends[j], *m)
					}
				}
				// Every other field; DeepEqual follows Msg to its Message.
				g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
				for f := 0; f < w.NumField(); f++ {
					name := w.Type().Field(f).Name
					if name != "Sends" && !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
						t.Fatalf("event %d: %s is %+v on the reused context, %+v on a fresh one",
							i, name, g.Field(f).Interface(), w.Field(f).Interface())
					}
				}
			}
			if len(reused.Undelivered) != len(fresh.Undelivered) {
				t.Fatalf("reused context: %d undelivered, fresh %d", len(reused.Undelivered), len(fresh.Undelivered))
			}
			for k, m := range fresh.Undelivered {
				if !reflect.DeepEqual(reused.Undelivered[k], m) {
					t.Fatalf("undelivered %d: %+v on the reused context, %+v on a fresh one", k, *reused.Undelivered[k], *m)
				}
			}
			if g, w := reused.Digest(), fresh.Digest(); g != w {
				t.Fatalf("digest %s on the reused context, %s on a fresh one", g[:16], w[:16])
			}
		})
	}
}

// BenchmarkEngineStepsN64 is the engine's share of the repository
// benchmark's sim-sweep-n64 workload: one benchShape run per iteration,
// seed by seed, on one reused RunContext, as a sweep worker runs them.
func BenchmarkEngineStepsN64(b *testing.B) {
	rc := sim.NewRunContext()
	if _, err := rc.Execute(benchShape(999_999)); err != nil { // grows the context
		b.Fatal(err)
	}
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := rc.Execute(benchShape(1_000_000 + int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		steps += len(tr.Events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}
