package sim

import (
	"slices"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// quietAutomaton has every process send one hello to each other
// process at its first step and emit a deliver event per hello it
// receives; a λ step after the first changes nothing, so from then on
// each process declares itself quiescent whatever its detector says.
// The processes in loud are wrapped so that they are not Quiescers.
type quietAutomaton struct{ loud model.ProcessSet }

type quietProc struct {
	self model.ProcessID
	n    int
	sent bool
}

// loudProc hides the wrapped process's Quiescent method.
type loudProc struct{ Process }

func (a quietAutomaton) Spawn(self model.ProcessID, n int) Process {
	p := &quietProc{self: self, n: n}
	if a.loud.Has(self) {
		return loudProc{p}
	}
	return p
}

func (p *quietProc) Step(in *Message, _ model.ProcessSet, _ model.Time) Actions {
	var acts Actions
	if !p.sent {
		p.sent = true
		acts.Sends = AppendOthers(nil, p.n, p.self, "hello")
	}
	if in != nil {
		acts.Events = []ProtocolEvent{{Kind: KindDeliver, Value: in.Payload}}
	}
	return acts
}

func (p *quietProc) Quiescent(model.ProcessSet) bool { return p.sent }

// unsteadyOracle hides the wrapped oracle's Steady declaration.
type unsteadyOracle struct{ fd.Oracle }

// runQuiesced executes cfg with and without Config.Quiesce and holds
// the two runs to each other: the first must be a step-by-step prefix
// of the second, and after a StopQuiescent the second may take only
// empty λ steps.
func runQuiesced(t *testing.T, cfg func() Config) (quiet, full *Trace) {
	t.Helper()
	c := cfg()
	c.Quiesce = true
	quiet, err := Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	full, err = Execute(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(quiet.Events) > len(full.Events) {
		t.Fatalf("%d steps, more than the full run's %d", len(quiet.Events), len(full.Events))
	}
	for i := range quiet.Events {
		a, b := &quiet.Events[i], &full.Events[i]
		if a.P != b.P || a.T != b.T || a.FD != b.FD || (a.Msg == nil) != (b.Msg == nil) ||
			(a.Msg != nil && a.Msg.ID != b.Msg.ID) || len(a.Sends) != len(b.Sends) || len(a.Events) != len(b.Events) {
			t.Fatalf("step %d differs from the full run's", i)
		}
	}
	if quiet.Stopped == StopQuiescent {
		for i := len(quiet.Events); i < len(full.Events); i++ {
			if ev := &full.Events[i]; ev.Msg != nil || len(ev.Sends) > 0 || len(ev.Events) > 0 {
				t.Fatalf("full run's step %d, after the quiescent stop, is not an empty λ step", i)
			}
		}
	}
	return quiet, full
}

// TestQuiescentStopConditions checks each condition of StopQuiescent on
// its own: a run whose processes all turn quiescent early must not stop
// while a message is still held (extra delay, cut), a crash is still
// scheduled, the detector output may still change (◇S before GST, a
// non-Steady oracle), an AfterStep hook is installed or a process is
// not a Quiescer. Only sealed drops left pending do not hold it back.
func TestQuiescentStopConditions(t *testing.T) {
	t.Parallel()
	const n, horizon, late = 5, 3000, 1500
	base := func() Config {
		return Config{
			N: n, Automaton: quietAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Horizon: horizon, Seed: 7, Policy: &RandomFairPolicy{},
		}
	}
	faulty := func(lf LinkFaults) func() Config {
		return func() Config {
			c := base()
			c.Policy = &FaultyPolicy{Inner: c.Policy, Faults: lf}
			return c
		}
	}
	cases := []struct {
		name string
		cfg  func() Config
		// want is the stop reason; a StopQuiescent run must also
		// reach notBefore.
		want      StopReason
		notBefore model.Time
	}{
		{name: "all quiet", cfg: base, want: StopQuiescent},
		{name: "extra delay", cfg: faulty(LinkFaults{DelaySteps: []DelayStep{{Max: 2 * late}}}), want: StopQuiescent, notBefore: late},
		{name: "cut until late", cfg: faulty(LinkFaults{Cuts: []EdgeCut{{Edges: []Edge{{A: 1, B: 2}}, Until: late}}}), want: StopQuiescent, notBefore: late},
		{name: "cut to the horizon", cfg: faulty(LinkFaults{Cuts: []EdgeCut{{Edges: []Edge{{A: 1, B: 2}}, Until: horizon + 1}}}), want: StopHorizon},
		{name: "crash scheduled", cfg: func() Config {
			c := base()
			// Marabout's output never changes, so only the scheduled
			// crash holds the stop back.
			c.Oracle = fd.Marabout{}
			c.Pattern = model.MustPattern(n).MustCrash(5, late)
			return c
		}, want: StopQuiescent, notBefore: late},
		{name: "◇S before GST", cfg: func() Config {
			c := base()
			c.Oracle = fd.EventuallyStrong{GST: late, Delay: 2, Seed: 3, FalseRate: 10}
			return c
		}, want: StopQuiescent, notBefore: late},
		{name: "oracle not Steady", cfg: func() Config {
			c := base()
			c.Oracle = unsteadyOracle{fd.Perfect{Delay: 2}}
			return c
		}, want: StopHorizon},
		{name: "AfterStep hook", cfg: func() Config {
			c := base()
			c.AfterStep = func(*Run, *EventRecord) {}
			return c
		}, want: StopHorizon},
		{name: "process not a Quiescer", cfg: func() Config {
			c := base()
			c.Automaton = quietAutomaton{loud: model.NewProcessSet(3)}
			return c
		}, want: StopHorizon},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			quiet, _ := runQuiesced(t, tc.cfg)
			if quiet.Stopped != tc.want {
				t.Fatalf("Stopped = %v, want %v", quiet.Stopped, tc.want)
			}
			if tc.want != StopQuiescent {
				return
			}
			if end := quiet.MaxTime(); end < tc.notBefore {
				t.Errorf("stopped at t=%d, before t=%d", end, tc.notBefore)
			}
			if len(quiet.Undelivered) > 0 {
				t.Errorf("stopped with %d messages undelivered", len(quiet.Undelivered))
			}
		})
	}

	// Sealed drops alone do not hold the stop back, and Undelivered
	// still lists them as the horizon run does: by destination, each
	// destination's in ID order.
	t.Run("sealed drops", func(t *testing.T) {
		quiet, full := runQuiesced(t, faulty(LinkFaults{DropSteps: []RateStep{{Pct: 50}}}))
		if quiet.Stopped != StopQuiescent {
			t.Fatalf("Stopped = %v, want quiescent", quiet.Stopped)
		}
		ids := func(ms []*Message) []int64 {
			out := make([]int64, len(ms))
			for i, m := range ms {
				out[i] = m.ID
			}
			return out
		}
		if got, want := ids(quiet.Undelivered), ids(full.Undelivered); len(got) == 0 || !slices.Equal(got, want) {
			t.Errorf("Undelivered = %v, want the horizon run's %v, non-empty", got, want)
		}
		for p := model.ProcessID(1); p <= n; p++ {
			if got := ids(quiet.UndeliveredTo(p)); !slices.IsSorted(got) {
				t.Errorf("Undelivered to %v = %v, not in ID order", p, got)
			}
		}
	})
}
