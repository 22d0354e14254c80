package trb

import (
	"fmt"
	"strings"
	"testing"

	"realisticfd/internal/consensus"
	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

func runTRB(t *testing.T, pat *model.FailurePattern, waves int, seed int64) *sim.Trace {
	t.Helper()
	tr, err := sim.Execute(sim.Config{
		N:         pat.N(),
		Automaton: Broadcast{Waves: waves},
		Oracle:    fd.Perfect{Delay: 2},
		Pattern:   pat,
		Horizon:   60000,
		Seed:      seed,
		Policy:    &sim.RandomFairPolicy{},
		StopWhen:  AllDelivered(waves),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != sim.StopCondition {
		t.Fatalf("TRB run did not complete: %v", tr)
	}
	return tr
}

func TestInstanceIDRoundTrip(t *testing.T) {
	t.Parallel()
	for _, init := range []model.ProcessID{1, 5, 64} {
		for _, seq := range []int{0, 1, 999} {
			i, k := SplitInstanceID(InstanceID(init, seq))
			if i != init || k != seq {
				t.Fatalf("round trip (%v,%d) → (%v,%d)", init, seq, i, k)
			}
		}
	}
}

func TestTRBFailureFree(t *testing.T) {
	t.Parallel()
	const waves = 2
	for seed := int64(0); seed < 5; seed++ {
		tr := runTRB(t, model.MustPattern(5), waves, seed)
		if err := CheckAll(tr, waves, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// No nil anywhere: all initiators are correct.
		for _, m := range Deliveries(tr) {
			for _, d := range m {
				if d.IsNil() {
					t.Fatalf("seed %d: nil delivered for correct initiator (%v,%d)", seed, d.Initiator, d.Seq)
				}
			}
		}
	}
}

func TestTRBCrashedGeneralDeliversNil(t *testing.T) {
	t.Parallel()
	const waves = 2
	for seed := int64(0); seed < 5; seed++ {
		// p2 crashes at t=1, before it can broadcast anything.
		pat := model.MustPattern(5).MustCrash(2, 1)
		tr := runTRB(t, pat, waves, seed)
		if err := CheckAll(tr, waves, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dels := Deliveries(tr)
		for k := 0; k < waves; k++ {
			m := dels[InstanceID(2, k)]
			for _, p := range pat.Correct().Slice() {
				d, ok := m[p]
				if !ok {
					t.Fatalf("seed %d: %v missing delivery for (p2,%d)", seed, p, k)
				}
				if !d.IsNil() {
					t.Fatalf("seed %d: (p2,%d) delivered %q at %v, want nil", seed, k, d.Value, p)
				}
			}
		}
	}
}

func TestTRBLateCrashMayDeliverValueOrNil(t *testing.T) {
	t.Parallel()
	// p3 crashes mid-run: its instances must still terminate at all
	// correct processes, with agreement; whether a given instance
	// yields the value or nil depends on the crash/suspicion race,
	// and both are legal for a faulty sender.
	const waves = 3
	sawNil := false
	for seed := int64(0); seed < 8; seed++ {
		pat := model.MustPattern(5).MustCrash(3, 120)
		tr := runTRB(t, pat, waves, seed)
		if err := CheckTermination(tr, waves); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckAgreement(tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckIntegrity(tr, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckNilAccuracy(tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, m := range Deliveries(tr) {
			for _, d := range m {
				if d.Initiator == 3 && d.IsNil() {
					sawNil = true
				}
			}
		}
	}
	if !sawNil {
		t.Error("no seed produced a nil delivery for the crashed p3; crash time too late to bite?")
	}
}

func TestTRBUnboundedCrashes(t *testing.T) {
	t.Parallel()
	// Proposition 5.1's sufficient direction holds with any number of
	// failures: crash all but p4.
	const waves = 2
	pat := model.MustPattern(5).MustCrash(1, 1).MustCrash(2, 40).MustCrash(3, 80).MustCrash(5, 140)
	tr := runTRB(t, pat, waves, 3)
	if err := CheckAll(tr, waves, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTRBCustomScript(t *testing.T) {
	t.Parallel()
	script := func(init model.ProcessID, k int) consensus.Value {
		return consensus.Value(fmt.Sprintf("order-%d-from-%v", k, init))
	}
	const waves = 2
	pat := model.MustPattern(4)
	tr, err := sim.Execute(sim.Config{
		N:         4,
		Automaton: Broadcast{Waves: waves, Script: script},
		Oracle:    fd.Perfect{Delay: 2},
		Pattern:   pat,
		Horizon:   60000,
		Seed:      1,
		StopWhen:  AllDelivered(waves),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAll(tr, waves, script); err != nil {
		t.Fatal(err)
	}
	// Spot-check one delivered value.
	d := Deliveries(tr)[InstanceID(2, 1)][3]
	if d.Value != "order-1-from-p2" {
		t.Fatalf("delivered %q", d.Value)
	}
}

// deliverer is a test automaton: at its first step, each process emits
// the TRB deliveries listed for it.
type deliverer map[model.ProcessID][]sim.ProtocolEvent

func (d deliverer) Spawn(self model.ProcessID, _ int) sim.Process {
	return &deliverProc{evs: d[self]}
}

type deliverProc struct{ evs []sim.ProtocolEvent }

func (p *deliverProc) Step(*sim.Message, model.ProcessSet, model.Time) sim.Actions {
	evs := p.evs
	p.evs = nil
	return sim.Actions{Events: evs}
}

// TestChecksNameTheFirstViolationInInstanceOrder pins which violation a
// check names on a trace with two: the first in instance order (by
// initiator, then wave), however often it is asked.
func TestChecksNameTheFirstViolationInInstanceOrder(t *testing.T) {
	t.Parallel()
	del := func(init model.ProcessID, seq int, v consensus.Value) sim.ProtocolEvent {
		return sim.ProtocolEvent{Kind: sim.KindDeliver, Instance: InstanceID(init, seq), Value: v}
	}
	// (p2,0) and (p3,0) disagree, on values their initiators never
	// broadcast; (p1,1) and (p4,0) deliver nil though nobody crashes.
	tr, err := sim.Execute(sim.Config{
		N: 4, Oracle: fd.Perfect{}, Horizon: 40, Seed: 1, Policy: &sim.RandomFairPolicy{},
		Automaton: deliverer{
			1: {del(3, 0, "m(3,0)"), del(2, 0, "m(2,0)"), del(4, 0, Nil)},
			2: {del(3, 0, "y"), del(1, 1, Nil)},
			3: {del(2, 0, "x")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.ProtocolEvents(sim.KindDeliver)); got != 6 {
		t.Fatalf("trace holds %d deliveries, want 6", got)
	}
	for i := 0; i < 20; i++ {
		for _, tc := range []struct {
			name string
			err  error
			want string
		}{
			{"agreement", CheckAgreement(tr), `trb agreement violated for (p2,0): p1 delivered "m(2,0)", p3 delivered "x"`},
			{"integrity", CheckIntegrity(tr, nil), `trb integrity violated: (p2,0) delivered "x" at p3, initiator broadcast "m(2,0)"`},
			{"nil-accuracy", CheckNilAccuracy(tr), "trb nil-accuracy violated: p2 delivered nil for (p1,1) at t="},
		} {
			if tc.err == nil || !strings.HasPrefix(tc.err.Error(), tc.want) {
				t.Fatalf("%s names %v, want %s", tc.name, tc.err, tc.want)
			}
		}
	}
}
