package abcast

import (
	"testing"

	"realisticfd/internal/consensus"
	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// script builds a broadcast script with `per` messages per process.
func script(n, per int) map[model.ProcessID][]string {
	out := make(map[model.ProcessID][]string, n)
	for p := 1; p <= n; p++ {
		var msgs []string
		for i := 0; i < per; i++ {
			msgs = append(msgs, string(rune('a'+p))+"-payload")
		}
		out[model.ProcessID(p)] = msgs
	}
	return out
}

// allDelivered stops once every correct process delivered every
// correct sender's messages (crashed senders' messages may or may not
// appear; validity does not cover them).
func allDelivered(sc map[model.ProcessID][]string) func(*sim.Trace) bool {
	return func(tr *sim.Trace) bool {
		seqs := Sequences(tr)
		correct := tr.Pattern.Correct()
		for _, p := range correct.Slice() {
			have := map[MsgID]bool{}
			for _, d := range seqs[p] {
				have[d.ID] = true
			}
			for _, sender := range correct.Slice() {
				for i := range sc[sender] {
					if !have[MsgID{Sender: sender, Seq: i}] {
						return false
					}
				}
			}
		}
		return true
	}
}

func runAB(t *testing.T, pat *model.FailurePattern, sc map[model.ProcessID][]string, seed int64) *sim.Trace {
	t.Helper()
	tr, err := sim.Execute(sim.Config{
		N:         pat.N(),
		Automaton: Atomic{ToBroadcast: sc, MaxInstances: 30},
		Oracle:    fd.Perfect{Delay: 2},
		Pattern:   pat,
		Horizon:   120000,
		Seed:      seed,
		Policy:    &sim.RandomFairPolicy{},
		StopWhen:  allDelivered(sc),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMsgIDCodec(t *testing.T) {
	t.Parallel()
	ids := []MsgID{{Sender: 3, Seq: 0}, {Sender: 1, Seq: 7}, {Sender: 3, Seq: 2}}
	v := encodeSet(ids)
	got, err := decodeSet(v)
	if err != nil {
		t.Fatal(err)
	}
	want := []MsgID{{Sender: 1, Seq: 7}, {Sender: 3, Seq: 0}, {Sender: 3, Seq: 2}}
	if len(got) != len(want) {
		t.Fatalf("decode = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decode[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Empty round-trip.
	if e, err := decodeSet(encodeSet(nil)); err != nil || len(e) != 0 {
		t.Fatalf("empty round-trip: %v, %v", e, err)
	}
	// Malformed inputs fail cleanly.
	for _, bad := range []string{"x", "1:2", "a.b", ".5", "5."} {
		if _, err := decodeSet(consensus.Value(bad)); err == nil {
			t.Fatalf("decodeSet(%q) accepted", bad)
		}
	}
}

func TestAtomicBroadcastFailureFree(t *testing.T) {
	t.Parallel()
	sc := script(5, 2)
	for seed := int64(0); seed < 5; seed++ {
		tr := runAB(t, model.MustPattern(5), sc, seed)
		if tr.Stopped != sim.StopCondition {
			t.Fatalf("seed %d: deliveries incomplete: %v", seed, tr)
		}
		if err := CheckAll(tr, sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAtomicBroadcastWithCrashes(t *testing.T) {
	t.Parallel()
	sc := script(5, 2)
	cases := []func() *model.FailurePattern{
		func() *model.FailurePattern { return model.MustPattern(5).MustCrash(2, 50) },
		func() *model.FailurePattern { return model.MustPattern(5).MustCrash(1, 5).MustCrash(3, 300) },
		func() *model.FailurePattern {
			// unbounded crashes: only p4 survives
			return model.MustPattern(5).MustCrash(1, 40).MustCrash(2, 80).MustCrash(3, 120).MustCrash(5, 160)
		},
	}
	for ci, mk := range cases {
		for seed := int64(0); seed < 4; seed++ {
			tr := runAB(t, mk(), sc, seed)
			if tr.Stopped != sim.StopCondition {
				t.Fatalf("case %d seed %d: deliveries incomplete", ci, seed)
			}
			if err := CheckAll(tr, sc); err != nil {
				t.Fatalf("case %d seed %d: %v", ci, seed, err)
			}
		}
	}
}

func TestAtomicBroadcastCrashedSenderPrefix(t *testing.T) {
	t.Parallel()
	// A sender that crashes mid-dissemination: whatever of its traffic
	// got ordered must be identically ordered everywhere (uniform
	// total order); its undelivered tail simply vanishes.
	sc := script(5, 3)
	pat := model.MustPattern(5).MustCrash(2, 12)
	tr := runAB(t, pat, sc, 2)
	if err := CheckTotalOrder(tr); err != nil {
		t.Fatal(err)
	}
	if err := CheckIntegrity(tr, sc); err != nil {
		t.Fatal(err)
	}
	if err := CheckAgreement(tr); err != nil {
		t.Fatal(err)
	}
}

// spuriousDeliverer delivers, at every process's first step, a message
// nobody broadcast: every process violates integrity.
type spuriousDeliverer struct{}

type spuriousProc struct{ done bool }

func (spuriousDeliverer) Spawn(model.ProcessID, int) sim.Process { return &spuriousProc{} }

func (p *spuriousProc) Step(*sim.Message, model.ProcessSet, model.Time) sim.Actions {
	if p.done {
		return sim.Actions{}
	}
	p.done = true
	d := Delivery{ID: MsgID{Sender: 1, Seq: 99}, Body: "forged"}
	return sim.Actions{Events: []sim.ProtocolEvent{{Kind: sim.KindDeliver, Value: d}}}
}

// TestCheckIntegrityNamesLowestProcess: with every process a violator,
// CheckIntegrity names p1, whichever process delivered first and
// whatever order the per-process sequences iterate in.
func TestCheckIntegrityNamesLowestProcess(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 20; seed++ {
		tr, err := sim.Execute(sim.Config{
			N: 8, Automaton: spuriousDeliverer{}, Oracle: fd.Perfect{},
			Horizon: 200, Seed: seed, Policy: &sim.RandomFairPolicy{},
		})
		if err != nil {
			t.Fatal(err)
		}
		err = CheckIntegrity(tr, script(8, 1))
		if want := "integrity violated: p1 delivered unknown message 1.99"; err == nil || err.Error() != want {
			t.Fatalf("seed %d: CheckIntegrity = %v, want %s", seed, err, want)
		}
	}
}
