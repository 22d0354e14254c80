package sim

import (
	"reflect"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// naiveDecisions is the pre-index implementation of Trace.Decisions: a
// full rescan of the schedule. The fuzzer holds the incremental index
// to exactly this.
func naiveDecisions(tr *Trace, instance int) []LocatedEvent {
	var out []LocatedEvent
	for i := range tr.Events {
		ev := &tr.Events[i]
		for _, pe := range ev.Events {
			if pe.Kind == KindDecide && (instance == AnyInstance || pe.Instance == instance) {
				out = append(out, LocatedEvent{EventIndex: i, P: ev.P, T: ev.T, Event: pe})
			}
		}
	}
	return out
}

// naiveProtocolEvents is the pre-index implementation of
// Trace.ProtocolEvents.
func naiveProtocolEvents(tr *Trace, kind EventKind) []LocatedEvent {
	var out []LocatedEvent
	for i := range tr.Events {
		ev := &tr.Events[i]
		for _, pe := range ev.Events {
			if pe.Kind == kind {
				out = append(out, LocatedEvent{EventIndex: i, P: ev.P, T: ev.T, Event: pe})
			}
		}
	}
	return out
}

// naiveDecidedSet is the pre-index decided-set computation.
func naiveDecidedSet(tr *Trace, instance int) model.ProcessSet {
	s := model.EmptySet()
	for _, d := range naiveDecisions(tr, instance) {
		s = s.Add(d.P)
	}
	return s
}

// fuzzAutomata are the protocol shapes the fuzzer schedules: message
// noise, deliver events, a causal chain with one decision,
// multi-instance decisions, and one hello round that then turns
// quiescent.
func fuzzAutomaton(kind uint8, n int) Automaton {
	switch kind % 5 {
	case 0:
		return noisyAutomaton{}
	case 1:
		return broadcastAutomaton{}
	case 2:
		return chainAutomaton{k: n - 1}
	case 3:
		return multiInstanceDecider{}
	default:
		return quietAutomaton{}
	}
}

func fuzzPolicy(kind uint8) Policy {
	switch kind % 4 {
	case 0:
		return &FairPolicy{}
	case 1:
		return &RandomFairPolicy{}
	case 2:
		return &DelayPolicy{Target: model.NewProcessSet(2), Until: 90}
	default:
		return &MuzzlePolicy{Inner: &FairPolicy{}, Muzzled: model.NewProcessSet(1, 3), Until: 60}
	}
}

func fuzzFaults(dropPct, extraDelay uint8) *LinkFaults {
	return &LinkFaults{
		DropSteps:  []RateStep{{Pct: int(dropPct % 40)}},
		DelaySteps: []DelayStep{{Max: model.Time(extraDelay % 8)}},
		// {p1, p2} severed from the rest: the fuzzed n is at most 11,
		// and edges to absent processes carry nothing.
		Cuts: []EdgeCut{{Edges: []Edge{
			{A: 1, B: 3}, {A: 1, B: 4}, {A: 1, B: 5}, {A: 1, B: 6}, {A: 1, B: 7}, {A: 1, B: 8}, {A: 1, B: 9}, {A: 1, B: 10}, {A: 1, B: 11},
			{A: 2, B: 3}, {A: 2, B: 4}, {A: 2, B: 5}, {A: 2, B: 6}, {A: 2, B: 7}, {A: 2, B: 8}, {A: 2, B: 9}, {A: 2, B: 10}, {A: 2, B: 11},
		}, From: 20, Until: model.Time(20 + extraDelay)}},
	}
}

// listOnlyPolicy embeds only Policy, so it hides the setPolicy word
// path of the policy it wraps, as a wrapper from outside the package
// does: the engine then schedules through NextProcess.
type listOnlyPolicy struct{ Policy }

// The flags of a FuzzEngineDeterminism input.
const (
	fuzzStopWhen = 1 << iota // Config.StopWhen = AllDecided(0)
	fuzzQuiesce              // Config.Quiesce
	fuzzFaulty               // Config.Faults = fuzzFaults(...)
)

// FuzzEngineDeterminism fuzzes (seed, faults, horizon, policy,
// automaton, crash script, stop) configurations and asserts the
// invariants the whole reproduction rests on:
//
//  1. Determinism: executing the same config twice yields
//     byte-identical digests (the replay property of DESIGN.md §5).
//  2. Index soundness: every incremental trace index agrees with a
//     naive full-trace rescan, and the engine's cached alive set
//     agrees with a fresh pattern scan.
//  3. Optional interfaces change no run: the same config with its
//     policy behind listOnlyPolicy yields the same digest, quiescence
//     stop included.
//  4. Purging sealed drops changes no trace: without Quiesce, a faulty
//     config digests as the same run does with Config.Faults nil and
//     the plan applied by refFaultPolicy, which never purges.
//  5. A reused RunContext reproduces a fresh context's digest, also
//     when the run's seed comes back after a seed sharing its slot.
func FuzzEngineDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(1), uint8(10), uint8(4), uint16(300), uint8(0), uint8(0), uint8(0))
	f.Add(int64(42), uint8(8), uint8(3), uint8(0), uint8(0), uint16(800), uint8(1), uint8(1), uint8(fuzzStopWhen))
	f.Add(int64(7), uint8(5), uint8(0), uint8(20), uint8(6), uint16(150), uint8(1), uint8(2), uint8(fuzzFaulty))
	f.Add(int64(99), uint8(11), uint8(7), uint8(35), uint8(3), uint16(1500), uint8(3), uint8(3), uint8(fuzzStopWhen|fuzzFaulty))
	f.Add(int64(-3), uint8(4), uint8(4), uint8(5), uint8(7), uint16(60), uint8(2), uint8(1), uint8(0))
	f.Add(int64(7), uint8(1), uint8(0), uint8(50), uint8(0), uint16(1999), uint8(1), uint8(4), uint8(fuzzQuiesce|fuzzFaulty))
	f.Add(int64(3), uint8(7), uint8(2), uint8(0), uint8(5), uint16(900), uint8(2), uint8(4), uint8(fuzzQuiesce))

	f.Fuzz(func(t *testing.T, seed int64, nRaw, crashes, dropPct, extraDelay uint8, horizonRaw uint16, policyKind, autoKind, flags uint8) {
		n := 4 + int(nRaw%8)                       // 4..11
		horizon := model.Time(1 + horizonRaw%2000) // 1..2000

		build := func(n int, seed int64) Config {
			pat := model.MustPattern(n)
			for i := 0; i < int(crashes%uint8(n+1)); i++ { // up to n: all-crashed runs included
				// Deterministic crash script derived from the fuzz input
				// (uint64 keeps the modulo non-negative for any seed).
				p := model.ProcessID(1 + int((uint64(i)+uint64(seed))%uint64(n)))
				if _, dead := pat.CrashTime(p); dead {
					continue
				}
				pat.MustCrash(p, model.Time(1+(i*37+int(horizonRaw))%int(horizon+10)))
			}
			cfg := Config{
				N:         n,
				Automaton: fuzzAutomaton(autoKind, n),
				Oracle:    fd.Perfect{Delay: 2},
				Pattern:   pat,
				Horizon:   horizon,
				Seed:      seed,
				Policy:    fuzzPolicy(policyKind),
				Quiesce:   flags&fuzzQuiesce != 0,
			}
			if flags&fuzzStopWhen != 0 {
				cfg.StopWhen = AllDecided(0)
			}
			if flags&fuzzFaulty != 0 {
				cfg.Faults = fuzzFaults(dropPct, extraDelay)
			}
			return cfg
		}

		tr1, err := Execute(build(n, seed))
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := Execute(build(n, seed))
		if err != nil {
			t.Fatal(err)
		}
		if d1, d2 := tr1.Digest(), tr2.Digest(); d1 != d2 {
			t.Fatalf("replay diverged: %s vs %s", d1[:16], d2[:16])
		}

		// The list-only leg: no set path.
		hidden := build(n, seed)
		hidden.Policy = listOnlyPolicy{hidden.Policy}
		trH, err := Execute(hidden)
		if err != nil {
			t.Fatalf("list-only run: %v", err)
		}
		if dH := trH.Digest(); dH != tr1.Digest() {
			t.Fatalf("list-only policy diverged: %s vs %s", dH[:16], tr1.Digest()[:16])
		}

		// The purge-free leg: the plan applied by refFaultPolicy instead
		// of the engine, without the quiescence stop, which sees sealed
		// drops leave only through the engine's purge.
		if flags&fuzzFaulty != 0 {
			engine, ref := build(n, seed), build(n, seed)
			engine.Quiesce, ref.Quiesce = false, false
			ref.Policy, ref.Faults = &refFaultPolicy{inner: ref.Policy, lf: ref.Faults}, nil
			trE, err := Execute(engine)
			if err != nil {
				t.Fatal(err)
			}
			trR, err := Execute(ref)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if dE, dR := trE.Digest(), trR.Digest(); dE != dR {
				t.Fatalf("engine faults diverged from the purge-free reference: %s vs %s", dE[:16], dR[:16])
			}
		}

		// Streaming-vs-retained equivalence: on one reused RunContext,
		// first a different config (another n), so that the recycled
		// arena and trace slots hold values the fresh run never had,
		// then the config itself, which must reproduce the fresh-context
		// digest byte for byte. Running the same config twice would
		// leave stale values equal to fresh ones and hide a field the
		// engine forgot to write. The dirtying run takes another seed
		// too, so the generator the run under test starts has drawn
		// for a different run.
		rc := NewRunContext()
		if _, err := rc.Execute(build(4+(n-3)%8, seed+1)); err != nil {
			t.Fatalf("dirtying run: %v", err)
		}
		trS, err := rc.Execute(build(n, seed))
		if err != nil {
			t.Fatalf("reused context run: %v", err)
		}
		if dS := trS.Digest(); dS != tr1.Digest() {
			t.Fatalf("reused context diverged from fresh context: %s vs %s", dS[:16], tr1.Digest()[:16])
		}

		// Index soundness against the naive rescan.
		for _, inst := range []int{AnyInstance, 0, 1, 7} {
			want := naiveDecisions(tr1, inst)
			got := tr1.Decisions(inst)
			if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(want, got)) {
				t.Fatalf("Decisions(%d): index %v != rescan %v", inst, got, want)
			}
			if ws, gs := naiveDecidedSet(tr1, inst), tr1.DecidedSet(inst); !ws.Equal(gs) {
				t.Fatalf("DecidedSet(%d): index %v != rescan %v", inst, gs, ws)
			}
			if wc, gc := len(want), tr1.DecisionCount(inst); wc != gc {
				t.Fatalf("DecisionCount(%d): index %d != rescan %d", inst, gc, wc)
			}
		}
		for _, kind := range []EventKind{KindDecide, KindDeliver, KindFDOutput, KindViewChange} {
			want := naiveProtocolEvents(tr1, kind)
			got := tr1.ProtocolEvents(kind)
			if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(want, got)) {
				t.Fatalf("ProtocolEvents(%v): index has %d events, rescan %d", kind, len(got), len(want))
			}
		}

		// The cached alive set must agree with a fresh pattern scan at
		// the trace's end time.
		if want, got := tr1.Pattern.AliveAt(tr1.MaxTime()), tr1.AliveNow(); !want.Equal(got) {
			t.Fatalf("AliveNow = %v, pattern scan says %v", got, want)
		}
	})
}
