package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// refFaultPolicy is the purge-free reference for the engine's fault
// plane: the filter-and-map policy wrapper that used to apply link
// faults. It draws the lottery seed at its first call, hides from the
// inner policy every message the plan does not let through at t, maps
// the pick back to pending and never purges a sealed drop. A run with
// Config.Faults nil and the plan in here must match the digest of the
// same run under Config.Faults.
type refFaultPolicy struct {
	inner  Policy
	lf     *LinkFaults
	plane  faultPlane
	seeded bool
}

func (rp *refFaultPolicy) ensureSeed(r *rand.Rand) {
	if !rp.seeded {
		rp.plane.reset(rp.lf, r.Uint64())
		rp.seeded = true
	}
}

func (rp *refFaultPolicy) NextProcess(alive []model.ProcessID, t model.Time, r *rand.Rand) model.ProcessID {
	rp.ensureSeed(r)
	return rp.inner.NextProcess(alive, t, r)
}

func (rp *refFaultPolicy) PickMessage(p model.ProcessID, pending []*Message, t model.Time, r *rand.Rand) int {
	rp.ensureSeed(r)
	var visible []*Message
	var origIdx []int
	for i, m := range pending {
		if deliverable(&rp.plane, m, t) {
			visible = append(visible, m)
			origIdx = append(origIdx, i)
		}
	}
	idx := rp.inner.PickMessage(p, visible, t, r)
	if idx < 0 {
		return -1
	}
	if idx >= len(origIdx) {
		return len(pending) // out of range for pending too
	}
	return origIdx[idx]
}

// deliverable reports whether the plane lets m reach its destination
// at time t: neither dropped nor held.
func deliverable(fp *faultPlane, m *Message, t model.Time) bool {
	return !fp.lf.dropped(fp.seed, m) && !fp.held(m, t)
}

// armed is a fault plane for lf under the lottery seed.
func armed(lf LinkFaults, seed uint64) *faultPlane {
	fp := &faultPlane{}
	fp.reset(&lf, seed)
	return fp
}

// TestFaultyPolicyDropIsPerMessage checks that the drop lottery is a
// pure function of the message identity: whether m is lost must not
// depend on when or how often the engine looks at the buffer.
func TestFaultyPolicyDropIsPerMessage(t *testing.T) {
	t.Parallel()
	lf := &LinkFaults{DropSteps: []RateStep{{Pct: 40}}}
	m := &Message{ID: 7, From: 1, To: 2, SentAt: 3}
	first := lf.dropped(99, m)
	for i := 0; i < 50; i++ {
		if lf.dropped(99, m) != first {
			t.Fatal("drop verdict changed between calls")
		}
	}
	// Over many messages the drop rate must be in the right ballpark.
	dropped := 0
	const total = 2000
	for id := int64(1); id <= total; id++ {
		if lf.dropped(99, &Message{ID: id}) {
			dropped++
		}
	}
	if dropped < total*30/100 || dropped > total*50/100 {
		t.Fatalf("drop rate %d/%d far from configured 40%%", dropped, total)
	}
}

// TestFaultyPolicyDelayBounded checks 0 ≤ extra delay ≤ the delay bound.
func TestFaultyPolicyDelayBounded(t *testing.T) {
	t.Parallel()
	lf := &LinkFaults{DelaySteps: []DelayStep{{Max: 5}}}
	seen := make(map[model.Time]bool)
	for id := int64(1); id <= 500; id++ {
		d := lf.extraDelay(4, &Message{ID: id})
		if d < 0 || d > 5 {
			t.Fatalf("extra delay %d outside [0, 5]", d)
		}
		seen[d] = true
	}
	for want := model.Time(0); want <= 5; want++ {
		if !seen[want] {
			t.Errorf("delay %d never drawn in 500 messages", want)
		}
	}
}

// cutBlocks reports whether the plane's cuts withhold a message from
// p to q at time t; the plan has no loss or delay, so only a cut can.
func cutBlocks(fp *faultPlane, id int64, p, q model.ProcessID, t model.Time) bool {
	return !deliverable(fp, &Message{ID: id, From: p, To: q}, t)
}

// TestPartitionBlocksOnlyCrossCut checks a bipartition written as the
// cut of its crossing edges ({p1, p2} against {p3, p4}): only cross-cut
// traffic inside the window is blocked, and the cut heals.
func TestPartitionBlocksOnlyCrossCut(t *testing.T) {
	t.Parallel()
	fp := armed(LinkFaults{Cuts: []EdgeCut{
		{Edges: []Edge{{A: 1, B: 3}, {A: 1, B: 4}, {A: 2, B: 3}, {A: 2, B: 4}}, From: 10, Until: 20},
	}}, 0)
	cases := []struct {
		from, to model.ProcessID
		t        model.Time
		blocked  bool
	}{
		{1, 3, 15, true},   // cross-cut, inside window
		{3, 1, 15, true},   // symmetric
		{1, 2, 15, false},  // same side
		{3, 4, 15, false},  // same (other) side
		{1, 3, 9, false},   // before the cut
		{1, 3, 20, false},  // healed
		{1, 3, 500, false}, // long healed
	}
	for i, c := range cases {
		if got := cutBlocks(fp, int64(i+1), c.from, c.to, c.t); got != c.blocked {
			t.Errorf("blocked(%v→%v @%d) = %v, want %v", c.from, c.to, c.t, got, c.blocked)
		}
	}
}

// TestFaultyPolicyPartitionDelivery runs the broadcast automaton under
// a healing partition that isolates p1 (the cut of its four edges):
// messages across the cut are withheld during the window and delivered
// after the heal, so every correct process still delivers by the
// horizon.
func TestFaultyPolicyPartitionDelivery(t *testing.T) {
	t.Parallel()
	tr, err := Execute(Config{
		N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 400, Seed: 11,
		Faults: &LinkFaults{
			Cuts: []EdgeCut{{Edges: []Edge{{A: 1, B: 2}, {A: 1, B: 3}, {A: 1, B: 4}, {A: 1, B: 5}}, From: 1, Until: 100}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := model.EmptySet()
	var firstCrossDelivery model.Time
	for _, le := range tr.ProtocolEvents(KindDeliver) {
		delivered = delivered.Add(le.P)
		if le.P != 1 && firstCrossDelivery == 0 {
			firstCrossDelivery = le.T
		}
	}
	if want := model.NewProcessSet(2, 3, 4, 5); !want.SubsetOf(delivered) {
		t.Fatalf("delivered = %v, want ⊇ %v (partition must heal)", delivered, want)
	}
	if firstCrossDelivery < 100 {
		t.Fatalf("cross-cut delivery at t=%d, inside partition window [1, 100)", firstCrossDelivery)
	}
}

// TestFaultyPolicyDropLosesTraffic runs the broadcast automaton under
// a heavy-loss link and checks that some messages are genuinely never
// delivered: they remain in the undelivered buffer at the horizon.
func TestFaultyPolicyDropLosesTraffic(t *testing.T) {
	t.Parallel()
	lf := &LinkFaults{DropSteps: []RateStep{{Pct: 60}}}
	cfg := Config{
		N: 6, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 300, Seed: 5, Faults: lf,
	}
	tr, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Digest() != tr2.Digest() {
		t.Fatal("identical faulty configs replayed differently")
	}
	droppedLeft := 0
	for _, m := range tr2.Undelivered {
		if lf.dropped(FaultSeed(cfg.Seed), m) {
			droppedLeft++
		}
	}
	if droppedLeft == 0 {
		t.Fatal("60% drop rate but no dropped message left in the buffer")
	}
	checkNoDroppedDelivered(t, tr2, lf, cfg.Seed)
}

// checkNoDroppedDelivered fails t if the run at seed delivered a
// message its drop lottery loses. Under a lottery seed other than the
// engine's, a good share of the delivered messages read as dropped.
func checkNoDroppedDelivered(t *testing.T, tr *Trace, lf *LinkFaults, seed int64) {
	t.Helper()
	lottery := FaultSeed(seed)
	delivered, dropped := 0, 0
	for i := range tr.Events {
		if m := tr.Events[i].Msg; m != nil {
			delivered++
			if lf.dropped(lottery, m) {
				dropped++
			}
		}
	}
	if delivered == 0 || dropped != 0 {
		t.Fatalf("%d of %d delivered messages are ones the drop lottery loses", dropped, delivered)
	}
}

// TestLossyBacklogPurged is the regression test for the lossy-link
// backlog bug: dropped messages used to linger in the per-destination
// pending queues for the entire run, so every PickMessage rescanned a
// monotonically growing backlog. The engine now purges a message at its
// first dropped verdict; the purged messages must still surface in
// Trace.Undelivered in ID order (the golden drop/partition digests pin
// byte-identity).
func TestLossyBacklogPurged(t *testing.T) {
	t.Parallel()
	lf := &LinkFaults{DropSteps: []RateStep{{Pct: 50}}}
	tr, err := Execute(Config{
		N: 6, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 4000, Seed: 9,
		Policy: &RandomFairPolicy{}, Faults: lf,
	})
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	lastID := make(map[model.ProcessID]int64)
	for _, m := range tr.Undelivered {
		if m.ID <= lastID[m.To] {
			t.Fatalf("Undelivered to %v out of ID order: %d after %d", m.To, m.ID, lastID[m.To])
		}
		lastID[m.To] = m.ID
		if lf.dropped(FaultSeed(9), m) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("50% drop rate but no dropped message in the undelivered buffer")
	}
	checkNoDroppedDelivered(t, tr, lf, 9)
}

// TestFaultyPolicyComposesWithInner checks that link faults preserve
// the policy's scheduling among deliverable messages (fairness
// forcing, adversarial embargoes, ...).
func TestFaultyPolicyComposesWithInner(t *testing.T) {
	t.Parallel()
	tr, err := Execute(Config{
		N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 200, Seed: 3,
		Policy: &DelayPolicy{Target: model.NewProcessSet(2), Until: 50},
		Faults: &LinkFaults{DelaySteps: []DelayStep{{Max: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The embargo on p2 must still hold: p2 receives nothing before 50.
	for _, i := range tr.EventsOf(2) {
		ev := tr.Events[i]
		if ev.Msg != nil && ev.T < 50 {
			t.Fatalf("embargoed message delivered to p2 at t=%d", ev.T)
		}
	}
}

// TestEdgeCutBlocksOnlyCutEdges checks the edge cut as the engine
// applies it: only the listed edges are severed, in both directions,
// only inside the window.
func TestEdgeCutBlocksOnlyCutEdges(t *testing.T) {
	t.Parallel()
	fp := armed(LinkFaults{Cuts: []EdgeCut{
		{Edges: []Edge{{A: 1, B: 3}, {A: 4, B: 2}}, From: 10, Until: 20},
	}}, 0)
	cases := []struct {
		from, to model.ProcessID
		t        model.Time
		blocked  bool
	}{
		{1, 3, 15, true},  // cut edge, inside window
		{3, 1, 15, true},  // symmetric
		{2, 4, 15, true},  // listed in non-canonical order
		{1, 2, 15, false}, // edge not in the cut
		{3, 4, 15, false}, // edge not in the cut
		{5, 1, 15, false}, // sender beyond every endpoint of the cut
		{1, 5, 15, false}, // receiver beyond every endpoint of the cut
		{1, 3, 9, false},  // before the cut
		{1, 3, 20, false}, // healed
	}
	for i, c := range cases {
		if got := cutBlocks(fp, int64(i+1), c.from, c.to, c.t); got != c.blocked {
			t.Errorf("blocked(%v→%v @%d) = %v, want %v", c.from, c.to, c.t, got, c.blocked)
		}
	}
}

// TestEdgeCutEquivalentToPartition pins the run of the cut that severs
// {p1, p2} from {p3, p4, p5} to the text hash the same bipartition
// produced when it was a ProcessSet partition type of its own: the cut
// of the crossing edges is that partition, not an approximation of it.
func TestEdgeCutEquivalentToPartition(t *testing.T) {
	t.Parallel()
	crossing := []Edge{{A: 1, B: 3}, {A: 1, B: 4}, {A: 1, B: 5}, {A: 2, B: 3}, {A: 2, B: 4}, {A: 2, B: 5}}
	tr, err := Execute(Config{
		N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 400, Seed: 11,
		Faults: &LinkFaults{Cuts: []EdgeCut{{Edges: crossing, From: 1, Until: 100}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := tr.WriteText(h); err != nil {
		t.Fatal(err)
	}
	const want = "3e42a11aa27e4362243343474c304e080f32323f47bd9c0a4e02de5e6d903e25"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("edge-cut run hashes to %s, the partition run to %s", got, want)
	}
}

// TestFaultyPolicyCutDelivery runs the broadcast automaton under a
// healing single-edge cut: only traffic on the severed link is
// withheld, and it flows after the heal.
func TestFaultyPolicyCutDelivery(t *testing.T) {
	t.Parallel()
	lf := LinkFaults{Cuts: []EdgeCut{{Edges: []Edge{{A: 1, B: 2}}, From: 1, Until: 100}}}
	if !lf.Active() {
		t.Fatal("cut-only plan reports inactive")
	}
	tr, err := Execute(Config{
		N: 5, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 400, Seed: 11,
		Faults: &lf,
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := model.EmptySet()
	for _, i := range tr.EventsOf(2) {
		ev := tr.Events[i]
		if ev.Msg != nil && ev.Msg.From == 1 && ev.T < 100 {
			t.Fatalf("severed-link message p1→p2 delivered at t=%d, inside cut window", ev.T)
		}
	}
	for _, le := range tr.ProtocolEvents(KindDeliver) {
		delivered = delivered.Add(le.P)
	}
	if want := model.NewProcessSet(1, 2, 3, 4, 5); !want.SubsetOf(delivered) {
		t.Fatalf("delivered = %v, want ⊇ %v (cut must heal)", delivered, want)
	}
}

// TestLinkFaultsString pins the rendering used by fdsim banners.
func TestLinkFaultsString(t *testing.T) {
	t.Parallel()
	if got := (LinkFaults{}).String(); got != "faults{none}" {
		t.Errorf("empty plan renders %q", got)
	}
	lf := LinkFaults{DropSteps: []RateStep{{Pct: 10}}, DelaySteps: []DelayStep{{Max: 4}},
		Cuts: []EdgeCut{{Edges: []Edge{{A: 1, B: 3}}, From: 5, Until: 15}}}
	got := lf.String()
	for _, want := range []string{"drops=[10%@0]", "delays=[≤4@0]", "cut{p1-p3}@5..15"} {
		if !strings.Contains(got, want) {
			t.Errorf("plan rendering %q missing %q", got, want)
		}
	}
}

// TestFaultyPolicyStepTimelines pins the piecewise drop/delay
// machinery: the rate in force at a message's send time decides its
// fate, and before the first step nothing is lost or delayed.
func TestFaultyPolicyStepTimelines(t *testing.T) {
	t.Parallel()
	steps := &LinkFaults{
		DropSteps:  []RateStep{{From: 100, Pct: 100}, {From: 200, Pct: 0}},
		DelaySteps: []DelayStep{{From: 100, Max: 5}},
	}
	for id := int64(1); id <= 200; id++ {
		before := &Message{ID: id, SentAt: 99}
		during := &Message{ID: id, SentAt: 150}
		after := &Message{ID: id, SentAt: 200}
		if steps.dropped(17, before) || steps.dropped(17, after) {
			t.Fatal("message outside the 100% window dropped")
		}
		if !steps.dropped(17, during) {
			t.Fatal("message inside the 100% window survived")
		}
		if d := steps.extraDelay(17, before); d != 0 {
			t.Fatalf("delay %d before the delay step", d)
		}
		if d := steps.extraDelay(17, during); d < 0 || d > 5 {
			t.Fatalf("delay %d outside [0, 5]", d)
		}
	}
}
