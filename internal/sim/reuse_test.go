package sim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
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
		Horizon: horizon, Seed: seed, Policy: &sim.RandomFairPolicy{},
		Faults: &sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 20}}, DelaySteps: []sim.DelayStep{{Max: 3}}},
	}
}

// cutShape is churnShape with one more fault, a cut of the given edges
// over the middle half of the run.
func cutShape(n int, horizon model.Time, seed int64, edges ...sim.Edge) sim.Config {
	cfg := churnShape(n, horizon, seed)
	cfg.Faults.Cuts = []sim.EdgeCut{{Edges: edges, From: horizon / 4, Until: horizon * 3 / 4}}
	return cfg
}

// sentCount is the number of messages a trace's steps sent.
func sentCount(tr *sim.Trace) int {
	sent := 0
	for i := range tr.Events {
		sent += len(tr.Events[i].Sends)
	}
	return sent
}

// hostedProtocols are the automata that get their processes back on a
// reused RunContext, as scenario protocol kinds.
var hostedProtocols = []string{"reduction", "trb", "sflooding", "rotating"}

// hostedScenario is a run of a hosted protocol at n: one crash, delayed
// links, and the protocol's own stop. The rotating coordinator runs
// under ◇S with false suspicions and loses the first coordinator early,
// so that its runs go through several rounds and leave early proposals
// and coordinator states behind.
func hostedScenario(tb testing.TB, kind string, n int) harness.Scenario {
	protocol, stop := `{"kind": "sflooding"}`, `{"kind": "decided"}`
	oracle, crash := `{"kind": "perfect", "delay": 2}`, `{"process": 2, "at": 60}`
	switch kind {
	case "reduction":
		protocol, stop = `{"kind": "reduction", "max_instances": 6}`, `{"kind": "decided", "instance": 5}`
	case "trb":
		protocol, stop = `{"kind": "trb", "waves": 2}`, `{"kind": "all-delivered"}`
	case "rotating":
		protocol = `{"kind": "rotating"}`
		oracle = `{"kind": "eventually-strong", "delay": 3, "gst": 150, "false_rate": 30, "per_seed": true}`
		crash = `{"process": 1, "at": 8}`
	}
	spec, err := scenario.Parse(fmt.Appendf(nil, `{
		"schema": "fdspec/v3", "name": "reuse-%s", "n": %d, "horizon": 60000,
		"seeds": {"from": 0, "to": 1},
		"protocol": %s, "stop": %s, "oracle": %s,
		"crashes": [%s],
		"plan": [{"at": 0, "action": "delay", "bound": 4}]
	}`, kind, n, protocol, stop, oracle, crash))
	if err != nil {
		tb.Fatal(err)
	}
	return scenario.MustBuild(spec)
}

// respawnSpy counts the processes its automaton's Respawn handed back
// in place of a fresh Spawn.
type respawnSpy struct {
	hostedAutomaton
	respawned *int
}

type hostedAutomaton interface {
	sim.Automaton
	sim.Respawner
}

func (s respawnSpy) Respawn(old sim.Process, self model.ProcessID, n int) sim.Process {
	p := s.hostedAutomaton.Respawn(old, self, n)
	if p == old {
		*s.respawned++
	}
	return p
}

// spied is sc's run at seed, its automaton counted into respawned.
func spied(sc harness.Scenario, seed int64, respawned *int) sim.Config {
	cfg := sc.Config(seed)
	cfg.Automaton = respawnSpy{cfg.Automaton.(hostedAutomaton), respawned}
	return cfg
}

// TestReusedContextMatchesFresh holds a run on a reused RunContext to
// a fresh run of the same config, field by field. The engine writes
// each step into trace and arena slots it does not clear between runs,
// so the context is first dirtied: a larger run of another config
// grows every slot the run under test will take and fills it, and
// ScribbleRecycled then overwrites them all with values no run writes.
// A field the engine failed to write would keep that value, where the
// fresh run has a zero. Each hosted protocol runs twice: once after a
// run of itself at another n and one at another seed, so that Respawn
// hands every process back with the last run's payloads in its slab
// chunks, and once after another automaton, so that Respawn falls back
// to Spawn. The busy broadcast of the sweep benchmark runs after a run
// of itself at another seed, so it gets all 64 processes back.
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
	var respawned int
	type reuseCase struct {
		name      string
		dirty     []sim.Config // run on the context in order
		run       func() sim.Config
		respawned int // processes the run under test gets back from Respawn
	}
	busy := func(seed int64) sim.Config {
		cfg := benchShape(seed)
		cfg.Automaton = respawnSpy{scenario.BusyAutomaton{}, &respawned}
		return cfg
	}
	cases := []reuseCase{
		{"n64 broadcast", []sim.Config{churnShape(60, 2500, 17)}, func() sim.Config { return benchShape(1_000_000) }, 0},
		{"n64 broadcast respawned", []sim.Config{churnShape(60, 2500, 17), busy(7)}, func() sim.Config { return busy(1_000_000) }, 64},
		{"n8 sflooding", []sim.Config{churnShape(6, 600, 4)}, func() sim.Config { return sc.Config(3) }, 0},
		// The cut adjacency words are recycled too: the dirtying run's
		// cut severs links the run under test's does not.
		{"cut sets", []sim.Config{cutShape(7, 2000, 5, sim.Edge{A: 1, B: 2}, sim.Edge{A: 1, B: 3}, sim.Edge{A: 3, B: 4}, sim.Edge{A: 2, B: 5}, sim.Edge{A: 6, B: 7})},
			func() sim.Config { return cutShape(5, 600, 3, sim.Edge{A: 1, B: 4}, sim.Edge{A: 2, B: 3}) }, 0},
	}
	for _, kind := range hostedProtocols {
		const n = 6
		hosted, wider := hostedScenario(t, kind, n), hostedScenario(t, kind, n+2)
		run := func() sim.Config { return spied(hosted, 3, &respawned) }
		cases = append(cases,
			reuseCase{kind + " respawned", []sim.Config{spied(wider, 21, &respawned), spied(hosted, 22, &respawned)}, run, n},
			reuseCase{kind + " after churn", []sim.Config{spied(hosted, 22, &respawned), churnShape(n, 2000, 5)}, run, 0})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fresh, err := sim.Execute(c.run())
			if err != nil {
				t.Fatal(err)
			}
			rc := sim.NewRunContext()
			events, sends := 0, 0
			for _, cfg := range c.dirty {
				dirty, err := rc.Execute(cfg)
				if err != nil {
					t.Fatal(err)
				}
				events, sends = max(events, len(dirty.Events)), max(sends, sentCount(dirty))
			}
			if events < len(fresh.Events) || sends < sentCount(fresh) {
				t.Fatalf("dirtying runs too small: %d events and %d sends, the run under test has %d and %d",
					events, sends, len(fresh.Events), sentCount(fresh))
			}
			sim.ScribbleRecycled(rc)
			respawned = 0
			reused, err := rc.Execute(c.run())
			if err != nil {
				t.Fatal(err)
			}
			if respawned != c.respawned {
				t.Fatalf("Respawn handed back %d processes, want %d", respawned, c.respawned)
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

	// Seeds that come back to the context, after another seed and in a
	// row: each run starts its generator afresh.
	t.Run("returning seeds", func(t *testing.T) {
		const a, b = 3, 4
		rc := sim.NewRunContext()
		for i, seed := range []int64{a, b, a, a, b} {
			fresh, err := sim.Execute(churnShape(6, 600, seed))
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Digest()
			reused, err := rc.Execute(churnShape(6, 600, seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := reused.Digest(); got != want {
				t.Fatalf("run %d (seed %d): digest %s on the reused context, %s on a fresh one", i, seed, got[:16], want[:16])
			}
		}
	})
}

// slotAutomaton checks the engine's side of Respawn: each slot's process
// of the last run comes back to that slot. Its Respawn keeps a process
// of its own at the same n and logs why it spawns any other.
type slotAutomaton struct{ log *[]string }

type slotProc struct {
	self model.ProcessID
	n    int
}

func (slotAutomaton) Spawn(self model.ProcessID, n int) sim.Process {
	return &slotProc{self: self, n: n}
}

func (a slotAutomaton) Respawn(old sim.Process, self model.ProcessID, n int) sim.Process {
	p, ok := old.(*slotProc)
	switch {
	case old == nil:
		*a.log = append(*a.log, "nil")
	case !ok:
		*a.log = append(*a.log, "foreign")
	case p.n != n:
		*a.log = append(*a.log, "n")
	case p.self != self:
		*a.log = append(*a.log, fmt.Sprintf("%v in %v's slot", p.self, self))
	default:
		*a.log = append(*a.log, "kept")
		return p
	}
	return a.Spawn(self, n)
}

func (*slotProc) Step(*sim.Message, model.ProcessSet, model.Time) sim.Actions { return sim.Actions{} }

// TestRespawnHandOff runs a sequence of configs on one context and
// checks what Respawn is handed, slot by slot: nothing on a fresh
// context, the slot's own process after a run of the same automaton, a
// process of another automaton after one, and one of another size
// after a run at another n. A smaller run leaves the slots above its n
// as they were.
func TestRespawnHandOff(t *testing.T) {
	var log []string
	slots := func(n int) sim.Config {
		return sim.Config{N: n, Automaton: slotAutomaton{&log}, Oracle: fd.Perfect{}, Horizon: 5}
	}
	each := func(k int, why string) []string { return slices.Repeat([]string{why}, k) }
	rc := sim.NewRunContext()
	for _, step := range []struct {
		cfg  sim.Config
		want []string // what each slot of the run is handed
	}{
		{slots(7), each(7, "nil")},
		{slots(7), each(7, "kept")},
		{churnShape(7, 40, 1), nil},
		{slots(7), each(7, "foreign")},
		{slots(5), each(5, "n")},
		{slots(5), each(5, "kept")},
		{slots(7), append(each(5, "n"), "kept", "kept")}, // 6 and 7 hold theirs of n = 7
	} {
		log = log[:0]
		if _, err := rc.Execute(step.cfg); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(log, step.want) {
			t.Fatalf("n=%d: Respawn was handed %v, want %v", step.cfg.N, log, step.want)
		}
	}
}

// TestRespawnFallsBackToSpawn holds each hosted protocol's Respawn, and
// the busy broadcast's, to its contract: it keeps its own process of a
// run at the same n, and spawns a fresh one for nil, for another
// automaton's process and for its own of another n.
func TestRespawnFallsBackToSpawn(t *testing.T) {
	const n = 6
	names := append(slices.Clone(hostedProtocols), "busy")
	automata := make([]hostedAutomaton, 0, len(names))
	for _, kind := range hostedProtocols {
		automata = append(automata, hostedScenario(t, kind, n).Automaton.(hostedAutomaton))
	}
	automata = append(automata, scenario.BusyAutomaton{})
	for i, a := range automata {
		own := a.Spawn(3, n)
		if got := a.Respawn(own, 3, n); got != own {
			t.Errorf("%s: Respawn spawned afresh for its own process at the same n", names[i])
		}
		for j, old := range []sim.Process{
			nil,
			churnAutomaton{}.Spawn(3, n),
			a.Spawn(3, n+1),
			automata[(i+1)%len(automata)].Spawn(3, n),
		} {
			if got := a.Respawn(old, 3, n); got == nil || got == old {
				t.Errorf("%s: Respawn kept old process %d (%T) instead of spawning", names[i], j, old)
			}
		}
	}
}

// FuzzHostedContextReuse runs a hosted protocol at a dirtying seed and
// then at seed on one RunContext, so that the second run gets every
// process, multiplexer, host and slab chunk of the first back: its
// digest must be the fresh-context one.
func FuzzHostedContextReuse(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(3), int64(22))
	f.Add(uint8(1), uint8(2), int64(3), int64(22))
	f.Add(uint8(2), uint8(4), int64(0), int64(1))
	f.Add(uint8(3), uint8(3), int64(0), int64(3)) // rotating: the dirtying run leaves early proposals behind
	f.Fuzz(func(t *testing.T, kind, size uint8, seed, dirtySeed int64) {
		n := 4 + int(size%5)
		sc := hostedScenario(t, hostedProtocols[int(kind)%len(hostedProtocols)], n)
		fresh, err := sim.Execute(sc.Config(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Digest()
		rc := sim.NewRunContext()
		if _, err := rc.Execute(sc.Config(dirtySeed)); err != nil {
			t.Fatal(err)
		}
		respawned := 0
		reused, err := rc.Execute(spied(sc, seed, &respawned))
		if err != nil {
			t.Fatal(err)
		}
		if respawned != n {
			t.Fatalf("Respawn handed back %d of %d processes", respawned, n)
		}
		if got := reused.Digest(); got != want {
			t.Fatalf("digest %s on the reused context, %s on a fresh one", got[:16], want[:16])
		}
	})
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
