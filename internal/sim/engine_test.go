package sim

import (
	"bytes"
	"math"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// chainAutomaton builds the causal chain p1 → p2 → ... → pk, with pk
// deciding on receipt: p1 spontaneously sends a token to p2, each
// intermediate process forwards it one hop, and the last hop decides.
// It gives tests a trace whose causal structure is known exactly.
type chainAutomaton struct {
	k int // chain length (k ≤ n)
}

type chainProc struct {
	self model.ProcessID
	k    int
	sent bool
}

func (a chainAutomaton) Spawn(self model.ProcessID, n int) Process {
	return &chainProc{self: self, k: a.k}
}

func (p *chainProc) Step(in *Message, _ model.ProcessSet, _ model.Time) Actions {
	if p.self == 1 && !p.sent {
		p.sent = true
		return Actions{Sends: []Send{{To: 2, Payload: "token"}}}
	}
	if in == nil || p.sent {
		return Actions{}
	}
	p.sent = true
	if int(p.self) == p.k {
		return Actions{Events: []ProtocolEvent{{Kind: KindDecide, Instance: 0, Value: "done"}}}
	}
	return Actions{Sends: []Send{{To: p.self + 1, Payload: "token"}}}
}

// broadcastAutomaton floods one hello from p1; every receiver emits a
// deliver event.
type broadcastAutomaton struct{}

type broadcastProc struct {
	self model.ProcessID
	n    int
	sent bool
}

func (broadcastAutomaton) Spawn(self model.ProcessID, n int) Process {
	return &broadcastProc{self: self, n: n}
}

func (p *broadcastProc) Step(in *Message, _ model.ProcessSet, _ model.Time) Actions {
	var acts Actions
	if p.self == 1 && !p.sent {
		p.sent = true
		acts.Sends = Broadcast(p.n, "hello")
	}
	if in != nil {
		acts.Events = append(acts.Events, ProtocolEvent{Kind: KindDeliver, Instance: 0, Value: in.Payload})
	}
	return acts
}

func TestExecuteValidation(t *testing.T) {
	t.Parallel()
	base := Config{N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{}, Horizon: 10}
	cases := []struct {
		name string
		mut  func(Config) Config
	}{
		{"n too small", func(c Config) Config { c.N = 3; return c }},
		{"nil automaton", func(c Config) Config { c.Automaton = nil; return c }},
		{"nil oracle", func(c Config) Config { c.Oracle = nil; return c }},
		{"zero horizon", func(c Config) Config { c.Horizon = 0; return c }},
		{"pattern size mismatch", func(c Config) Config { c.Pattern = model.MustPattern(6); return c }},
	}
	for _, tc := range cases {
		if _, err := Execute(tc.mut(base)); err == nil {
			t.Errorf("%s: Execute accepted invalid config", tc.name)
		}
	}
	if _, err := Execute(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestChainCausality(t *testing.T) {
	t.Parallel()
	tr, err := Execute(Config{
		N: 5, Automaton: chainAutomaton{k: 4}, Oracle: fd.Perfect{},
		Horizon: 200, StopWhen: AllDecided(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	decs := tr.Decisions(0)
	if len(decs) != 1 {
		t.Fatalf("decisions = %d, want 1", len(decs))
	}
	d := decs[0]
	if d.P != 4 {
		t.Fatalf("decider = %v, want p4", d.P)
	}
	contr := tr.Contributors(d.EventIndex)
	// The chain p1→p2→p3→p4 means p1, p2, p3 contributed messages and
	// p4 is the decider; p5 is outside the chain.
	want := model.NewProcessSet(1, 2, 3, 4)
	if !contr.Equal(want) {
		t.Fatalf("contributors = %v, want %v", contr, want)
	}
	// The causal past must include p1's send event.
	past := tr.CausalPast(d.EventIndex)
	foundP1Send := false
	for _, i := range past {
		ev := tr.Events[i]
		if ev.P == 1 && len(ev.Sends) > 0 {
			foundP1Send = true
		}
	}
	if !foundP1Send {
		t.Fatal("causal past of the decision misses p1's send event")
	}
}

func TestDeterministicReplay(t *testing.T) {
	t.Parallel()
	run := func() *Trace {
		tr, err := Execute(Config{
			N: 6, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(6).MustCrash(3, 25),
			Horizon: 120, Seed: 99, Policy: &RandomFairPolicy{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("replay diverged: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.P != eb.P || ea.T != eb.T || !ea.FD.Equal(eb.FD) ||
			(ea.Msg == nil) != (eb.Msg == nil) ||
			(ea.Msg != nil && ea.Msg.ID != eb.Msg.ID) {
			t.Fatalf("replay diverged at event %d: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestCrashStopsProcess(t *testing.T) {
	t.Parallel()
	pat := model.MustPattern(5).MustCrash(2, 10)
	tr, err := Execute(Config{
		N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Pattern: pat, Horizon: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range tr.EventsOf(2) {
		if tr.Events[i].T >= 10 {
			t.Fatalf("crashed p2 stepped at t=%d", tr.Events[i].T)
		}
	}
	// Others keep stepping to the horizon.
	evs := tr.EventsOf(1)
	if len(evs) == 0 || tr.Events[evs[len(evs)-1]].T < 50 {
		t.Fatal("correct p1 stopped stepping early")
	}
}

func TestAllCrashedEndsRun(t *testing.T) {
	t.Parallel()
	pat := model.MustPattern(4)
	for p := 1; p <= 4; p++ {
		pat.MustCrash(model.ProcessID(p), 20)
	}
	tr, err := Execute(Config{
		N: 4, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Pattern: pat, Horizon: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != StopAllCrashed {
		t.Fatalf("Stopped = %v, want all-crashed", tr.Stopped)
	}
	if tr.MaxTime() >= 20 {
		t.Fatalf("events recorded at t=%d after global crash at 20", tr.MaxTime())
	}
}

func TestAfterStepHookCanCrash(t *testing.T) {
	t.Parallel()
	// The adversary crashes every process except p5 the moment the
	// chain decision happens — the shape of run R2 in Lemma 4.1.
	var crashTime model.Time
	tr, err := Execute(Config{
		N: 5, Automaton: chainAutomaton{k: 4}, Oracle: fd.Perfect{},
		Horizon: 400,
		AfterStep: func(r *Run, ev *EventRecord) {
			for _, pe := range ev.Events {
				if pe.Kind == KindDecide && crashTime == 0 {
					crashTime = r.Now()
					for p := model.ProcessID(1); p <= 4; p++ {
						if r.Pattern().Alive(p, r.Now()) {
							if err := r.Crash(p); err != nil {
								t.Errorf("Crash(%v): %v", p, err)
							}
						}
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if crashTime == 0 {
		t.Fatal("decision never happened")
	}
	// After the mass crash only p5 steps.
	for _, ev := range tr.Events {
		if ev.T > crashTime && ev.P != 5 {
			t.Fatalf("%v stepped at t=%d after mass crash at %d", ev.P, ev.T, crashTime)
		}
	}
}

func TestDelayPolicyEmbargo(t *testing.T) {
	t.Parallel()
	tr, err := Execute(Config{
		N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 300,
		Policy:  &DelayPolicy{Target: model.NewProcessSet(2), Until: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// p2 must not receive any message before t=100 but must receive
	// the broadcast afterwards.
	for _, i := range tr.EventsOf(2) {
		ev := tr.Events[i]
		if ev.Msg != nil && ev.T < 100 {
			t.Fatalf("embargoed p2 received %v at t=%d", ev.Msg, ev.T)
		}
	}
	if tr.DeliveredTo(2) == 0 {
		t.Fatal("p2 never received the broadcast after the embargo lifted")
	}
}

func TestMuzzlePolicyStarvesSteps(t *testing.T) {
	t.Parallel()
	tr, err := Execute(Config{
		N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 200,
		Policy: &MuzzlePolicy{
			Inner:   &FairPolicy{},
			Muzzled: model.NewProcessSet(4, 5),
			Until:   80,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []model.ProcessID{4, 5} {
		evs := tr.EventsOf(p)
		if len(evs) == 0 {
			t.Fatalf("%v never stepped after the muzzle lifted", p)
		}
		if first := tr.Events[evs[0]].T; first < 80 {
			t.Fatalf("muzzled %v stepped at t=%d < 80", p, first)
		}
	}
}

func TestHistoryRecordedDuringRun(t *testing.T) {
	t.Parallel()
	pat := model.MustPattern(5).MustCrash(4, 30)
	tr, err := Execute(Config{
		N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{Delay: 1},
		Pattern: pat, Horizon: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The history read off the steps' FD values must satisfy P's
	// properties over this run.
	h := model.NewHistory(tr.N)
	for _, ev := range tr.Events {
		h.Record(ev.P, ev.T, ev.FD)
	}
	rep := fd.Classify(h, pat)
	if !rep.InP() {
		t.Fatalf("history of a Perfect oracle not in P: %+v", rep)
	}
}

func TestUndeliveredAccounting(t *testing.T) {
	t.Parallel()
	// With a tiny horizon the broadcast cannot drain.
	tr, err := Execute(Config{
		N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != StopHorizon {
		t.Fatalf("Stopped = %v, want horizon", tr.Stopped)
	}
	if len(tr.Undelivered) == 0 {
		t.Fatal("expected undelivered messages at a 3-tick horizon")
	}
	total := 0
	for p := model.ProcessID(1); p <= 5; p++ {
		total += len(tr.UndeliveredTo(p))
	}
	if total != len(tr.Undelivered) {
		t.Fatalf("UndeliveredTo partitions %d of %d messages", total, len(tr.Undelivered))
	}
}

// TestSeededGeneratorMatchesFresh holds the generator a reused
// RunContext starts each run with to a fresh context's at the same
// seed, after the last run drew by a different amount and left Read's
// buffer part-used, and requires distinct seeds, the extremes included,
// to start distinct streams.
func TestSeededGeneratorMatchesFresh(t *testing.T) {
	t.Parallel()
	rc := NewRunContext()
	for i, seed := range []int64{3, 7, 7, -3, 0, math.MinInt64, math.MaxInt64, 3} {
		got, want := rc.startRNG(seed), NewRunContext().startRNG(seed)
		for k := 0; k < 1+i*7%23; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("start %d (seed %d): Uint64 draw %d is %d, a fresh context's %d", i, seed, k, g, w)
			}
			if g, w := got.Intn(k+1), want.Intn(k+1); g != w {
				t.Fatalf("start %d (seed %d): Intn(%d) is %d, a fresh context's %d", i, seed, k+1, g, w)
			}
		}
		gb, wb := make([]byte, 1+i%5), make([]byte, 1+i%5)
		got.Read(gb)
		want.Read(wb)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("start %d (seed %d): Read gives %x, a fresh context %x", i, seed, gb, wb)
		}
	}
	first := map[uint64]int64{}
	for seed := int64(-2000); seed <= 2000; seed++ {
		for _, s := range []int64{seed, math.MinInt64 + seed, math.MaxInt64 - seed} {
			d := rc.startRNG(s).Uint64()
			if other, ok := first[d]; ok && other != s {
				t.Fatalf("seeds %d and %d start with the same draw %d", other, s, d)
			}
			first[d] = s
		}
	}
}

// TestExecuteAllocBudgets pins what one engine run allocates: a fresh
// context (NewRunContext, and the package-level Execute, which makes
// one) of a fixed n = 8 run with one crash, and the same
// run on a reused RunContext, which must allocate no more than the
// fresh one. It is not parallel: AllocsPerRun counts every allocation
// in the process, the other tests' included.
func TestExecuteAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budget holds for the build the benchmark measures")
	}
	cfg := func() Config {
		return Config{
			N: 8, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(8).MustCrash(3, 700),
			Horizon: 2000, Seed: 5, Policy: &RandomFairPolicy{},
		}
	}
	run := func(rc *RunContext) {
		if _, err := rc.Execute(cfg()); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 197 // allocations of one fresh run, as measured
	fresh := testing.AllocsPerRun(5, func() { run(NewRunContext()) })
	oneShot := testing.AllocsPerRun(5, func() {
		if _, err := Execute(cfg()); err != nil {
			t.Fatal(err)
		}
	})
	rc := NewRunContext()
	reused := testing.AllocsPerRun(5, func() { run(rc) })
	t.Logf("fresh context: %.0f allocations (package-level Execute: %.0f), reused: %.0f", fresh, oneShot, reused)
	if fresh > budget || oneShot > budget {
		t.Errorf("a fresh-context run allocates %.0f times (package-level Execute: %.0f), budget %d", fresh, oneShot, budget)
	}
	if reused > fresh {
		t.Errorf("a reused-context run allocates %.0f times, more than a fresh one's %.0f", reused, fresh)
	}

	// The same run under drops, extra delay and a cut, warm on a reused
	// context: the fault plane's scratch (pick lists, cut adjacency) is
	// recycled with it. The budget is the measured 32 plus 10 %.
	lossy := func() Config {
		c := cfg()
		c.Faults = &LinkFaults{
			DropSteps: []RateStep{{Pct: 20}}, DelaySteps: []DelayStep{{Max: 3}},
			Cuts: []EdgeCut{{Edges: []Edge{{A: 1, B: 2}, {A: 1, B: 5}, {A: 4, B: 8}}, From: 100, Until: 900}},
		}
		return c
	}
	const lossyBudget = 35 // allocations of one warm reused-context run
	rc = NewRunContext()
	warmLossy := testing.AllocsPerRun(5, func() {
		if _, err := rc.Execute(lossy()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("reused context, lossy links and a cut: %.0f allocations", warmLossy)
	if warmLossy > lossyBudget {
		t.Errorf("a warm lossy reused-context run allocates %.0f times, budget %d", warmLossy, lossyBudget)
	}

	// The quiescence check allocates nothing: in this run every process
	// turns quiescent early, so the check runs at every idle step to the
	// horizon, held back only by the messages a cut withholds between
	// the last two processes to the end; the processes before them pass
	// every clause. On a reused context it must allocate exactly what
	// the same run without the check does.
	quietCfg := func(quiesce bool) Config {
		return Config{
			N: 8, Automaton: quietAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Horizon: 2000, Seed: 5, Quiesce: quiesce, Policy: &RandomFairPolicy{},
			Faults: &LinkFaults{Cuts: []EdgeCut{{Edges: []Edge{{A: 7, B: 8}}, Until: 2001}}},
		}
	}
	rc = NewRunContext()
	quietAllocs := func(quiesce bool) float64 {
		return testing.AllocsPerRun(5, func() {
			tr, err := rc.Execute(quietCfg(quiesce))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Stopped != StopHorizon {
				t.Fatalf("Stopped = %v, want horizon", tr.Stopped)
			}
		})
	}
	without, with := quietAllocs(false), quietAllocs(true)
	t.Logf("reused context, held message: %.0f allocations without the quiescence check, %.0f with it", without, with)
	if with != without {
		t.Errorf("the quiescence check changes a reused-context run's allocations from %.0f to %.0f", without, with)
	}
}
