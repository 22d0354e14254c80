package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"realisticfd/internal/model"
)

// Edge is one undirected link {A, B} of a communication graph. The
// scenario DSL generates topologies as edge sets and expresses
// partitions as cuts of those sets (DESIGN.md §8).
type Edge struct {
	A, B model.ProcessID
}

// String renders the edge, e.g. "p1-p4".
func (e Edge) String() string {
	return fmt.Sprintf("%v-%v", e.A, e.B)
}

// EdgeCut is a scripted network partition: while From ≤ t < Until no
// message crosses any edge of Edges, in either direction. At Until the
// cut heals and the withheld traffic becomes deliverable again (the
// messages waited in the buffer, as §2.3's model prescribes — a
// partition delays, it does not destroy). A bipartition of Ω is the
// cut of its crossing edges (the scenario DSL computes them from a
// side); any other edge set expresses a non-bipartition link failure.
type EdgeCut struct {
	// Edges are the severed links (direction-insensitive).
	Edges []Edge
	// From is the first severed instant.
	From model.Time
	// Until is the heal time; Until ≤ From makes the cut inert.
	Until model.Time
}

// String renders the cut compactly.
func (ec EdgeCut) String() string {
	es := make([]string, len(ec.Edges))
	for i, e := range ec.Edges {
		es[i] = e.String()
	}
	return fmt.Sprintf("cut{%s}@%d..%d", strings.Join(es, " "), ec.From, ec.Until)
}

// LinkFaults describes a composable set of link-level faults layered on
// top of any scheduling policy by FaultyPolicy. Every fault decision is
// a pure function of the fault seed and the message identity, so a run
// replayed with the same sim.Config (and therefore the same engine RNG
// stream) reproduces the exact same losses, delays and partitions.
//
// Loss and extra delay are piecewise-constant in send time: a constant
// rate is one step at From 0, and no step means no loss (no delay).
//
// Liveness caveat: a DropSteps segment with Pct > 0 models a lossy link
// without retransmission, so condition (5) of §2.4 (every message to a
// correct process is eventually received) no longer holds and only
// safety properties should be asserted. Extra delay and healed Cuts
// preserve eventual delivery within a sufficient horizon; a cut whose
// Until lies at or beyond the horizon permanently severs its links (how
// the scenario DSL embeds sparse topologies).
type LinkFaults struct {
	// Cuts are scripted partitions: severings of explicit edge sets,
	// each healing at its Until time.
	Cuts []EdgeCut
	// DropSteps makes the loss rate piecewise-constant in send time: a
	// message sent at t is dropped with the Pct of the last step whose
	// From ≤ t (none before the first step). Steps must be sorted by
	// From. The scenario DSL lowers its timed drop actions here.
	DropSteps []RateStep
	// DelaySteps likewise schedules the extra-delay bound by send time:
	// a message draws its extra latency uniformly from [0, Max] ticks
	// and is invisible to its destination until SentAt + extra.
	DelaySteps []DelayStep
}

// RateStep is one piecewise-constant segment of a drop-rate timeline:
// messages sent at or after From are lost with probability Pct percent,
// until a later step supersedes it.
type RateStep struct {
	From model.Time
	Pct  int
}

// DelayStep is one piecewise-constant segment of an extra-delay
// timeline: messages sent at or after From draw their extra latency
// uniformly from [0, Max] ticks.
type DelayStep struct {
	From model.Time
	Max  model.Time
}

// dropPctAt returns the loss rate for a message sent at t.
func (lf LinkFaults) dropPctAt(t model.Time) int {
	pct := 0
	for _, s := range lf.DropSteps {
		if s.From > t {
			break
		}
		pct = s.Pct
	}
	return pct
}

// delayBoundAt returns the extra-delay bound for a message sent at t.
func (lf LinkFaults) delayBoundAt(t model.Time) model.Time {
	var d model.Time
	for _, s := range lf.DelaySteps {
		if s.From > t {
			break
		}
		d = s.Max
	}
	return d
}

// lossy reports whether any segment of the plan loses messages.
func (lf LinkFaults) lossy() bool {
	for _, s := range lf.DropSteps {
		if s.Pct > 0 {
			return true
		}
	}
	return false
}

// Active reports whether the fault plan perturbs anything at all.
func (lf LinkFaults) Active() bool {
	return len(lf.Cuts) > 0 || len(lf.DropSteps) > 0 || len(lf.DelaySteps) > 0
}

// String renders the plan, e.g.
// "faults{cuts=[cut{p1-p3}@40..400],drops=[10%@0],delays=[≤4@0]}".
func (lf LinkFaults) String() string {
	if !lf.Active() {
		return "faults{none}"
	}
	var parts []string
	if len(lf.Cuts) > 0 {
		cs := make([]string, len(lf.Cuts))
		for i, c := range lf.Cuts {
			cs[i] = c.String()
		}
		parts = append(parts, "cuts=["+strings.Join(cs, " ")+"]")
	}
	if len(lf.DropSteps) > 0 {
		ss := make([]string, len(lf.DropSteps))
		for i, s := range lf.DropSteps {
			ss[i] = fmt.Sprintf("%d%%@%d", s.Pct, s.From)
		}
		parts = append(parts, "drops=["+strings.Join(ss, " ")+"]")
	}
	if len(lf.DelaySteps) > 0 {
		ss := make([]string, len(lf.DelaySteps))
		for i, s := range lf.DelaySteps {
			ss[i] = fmt.Sprintf("≤%d@%d", s.Max, s.From)
		}
		parts = append(parts, "delays=["+strings.Join(ss, " ")+"]")
	}
	return "faults{" + strings.Join(parts, ",") + "}"
}

// FaultyPolicy layers LinkFaults on top of an inner scheduling policy:
// messages the faults make invisible at time t (dropped forever,
// still in their extra-delay window, or caught behind an unhealed
// partition) are hidden from the inner policy, which schedules the
// remaining traffic exactly as it would have. Composability is the
// point — any Policy (fair, random-fair, adversarial) can be wrapped.
//
// The per-message fault lottery is seeded once per run: explicitly via
// Seed, or, when Seed is zero, from the engine's RNG on first use.
// Either way the decision for message m depends only on (seed, m.ID),
// never on scheduling order, so replays with the same Config are
// byte-identical and the Lemma 4.1 indistinguishability argument keeps
// its footing under faulty links.
//
// Like every Policy, a FaultyPolicy is a stateful per-run object:
// construct a fresh one for each run.
type FaultyPolicy struct {
	// Inner supplies the underlying schedule; nil means FairPolicy.
	Inner Policy
	// Faults is the fault plan.
	Faults LinkFaults
	// Seed overrides the fault lottery seed; 0 draws one from the
	// engine RNG on first use (still deterministic per run).
	Seed uint64

	seed    uint64
	seeded  bool
	visible []*Message // scratch: reused per PickMessage call
	origIdx []int      // scratch: visible[i] = pending[origIdx[i]]
	// cutAdjs holds one adjacency word per process for each
	// Faults.Cuts entry, built lazily, so a membership test is one bit
	// test per message even for the large cuts sparse topologies
	// compile into.
	cutAdjs [][]model.ProcessSet
}

var _ Policy = (*FaultyPolicy)(nil)

func (fp *FaultyPolicy) inner() Policy {
	if fp.Inner == nil {
		fp.Inner = &FairPolicy{}
	}
	return fp.Inner
}

func (fp *FaultyPolicy) ensureSeed(r *rand.Rand) {
	if fp.seeded {
		return
	}
	if fp.Seed != 0 {
		fp.seed = fp.Seed
	} else {
		fp.seed = r.Uint64()
	}
	fp.seeded = true
}

// Dropped reports whether the plan loses message m forever, at the
// rate in force at m.SentAt. The lottery hash itself never depends on
// the rate, so two plans that agree on the rate at m.SentAt agree on
// m's fate.
func (fp *FaultyPolicy) Dropped(m *Message) bool {
	pct := fp.Faults.dropPctAt(m.SentAt)
	if pct <= 0 {
		return false
	}
	return model.Mix64(fp.seed^uint64(m.ID))%100 < uint64(pct)
}

// ExtraDelay returns the extra latency the plan imposes on m, drawn
// from the delay bound in force at m.SentAt.
func (fp *FaultyPolicy) ExtraDelay(m *Message) model.Time {
	d := fp.Faults.delayBoundAt(m.SentAt)
	if d <= 0 {
		return 0
	}
	return model.Time(model.Mix64(fp.seed^uint64(m.ID)<<1^0xd1b54a32d192ed03) % uint64(d+1))
}

// cutAdj returns the adjacency of cut i, indexed by process ID up to
// the cut's highest endpoint: q is in adj[p] exactly when the cut
// severs {p, q}. It is built on first use.
func (fp *FaultyPolicy) cutAdj(i int) []model.ProcessSet {
	if fp.cutAdjs == nil {
		fp.cutAdjs = make([][]model.ProcessSet, len(fp.Faults.Cuts))
	}
	if fp.cutAdjs[i] == nil {
		edges := fp.Faults.Cuts[i].Edges
		var top model.ProcessID
		for _, e := range edges {
			top = max(top, e.A, e.B)
		}
		adj := make([]model.ProcessSet, top+1)
		for _, e := range edges {
			adj[e.A] = adj[e.A].Add(e.B)
			adj[e.B] = adj[e.B].Add(e.A)
		}
		fp.cutAdjs[i] = adj
	}
	return fp.cutAdjs[i]
}

// Deliverable reports whether m may reach its destination at time t
// under the fault plan (assuming the fault seed is fixed).
func (fp *FaultyPolicy) Deliverable(m *Message, t model.Time) bool {
	if fp.Dropped(m) || t < m.SentAt+fp.ExtraDelay(m) {
		return false
	}
	for i, ec := range fp.Faults.Cuts {
		if t < ec.From || t >= ec.Until {
			continue
		}
		if adj := fp.cutAdj(i); int(m.From) < len(adj) && adj[m.From].Has(m.To) {
			return false
		}
	}
	return true
}

// DropSifter is implemented by policies under which some pending
// messages are permanently undeliverable. The engine consults it
// before every PickMessage and purges the reported messages from the
// pending queue — they still count as undelivered in the trace, but
// no later step rescans them. Implementations must report a subset of
// pending in its original order, and a message once reported must
// never have been (and never be) deliverable.
type DropSifter interface {
	// SiftDropped appends the permanently dropped messages of pending
	// to dst and returns it. pending is the destination's queue in
	// sending order; the returned messages keep that order.
	SiftDropped(pending []*Message, dst []*Message) []*Message
}

var _ DropSifter = (*FaultyPolicy)(nil)

// SiftDropped implements DropSifter: every pending message whose drop
// lottery says "lost forever" is reported for purging.
func (fp *FaultyPolicy) SiftDropped(pending []*Message, dst []*Message) []*Message {
	if !fp.seeded || !fp.Faults.lossy() {
		return dst
	}
	for _, m := range pending {
		if fp.Dropped(m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// NextProcess implements Policy by delegating to the inner policy.
func (fp *FaultyPolicy) NextProcess(alive []model.ProcessID, t model.Time, r *rand.Rand) model.ProcessID {
	fp.ensureSeed(r)
	return fp.inner().NextProcess(alive, t, r)
}

// PickMessage implements Policy: the inner policy chooses among the
// messages the faults let through, and the choice is mapped back to an
// index into the full pending slice.
func (fp *FaultyPolicy) PickMessage(p model.ProcessID, pending []*Message, t model.Time, r *rand.Rand) int {
	fp.ensureSeed(r)
	fp.visible = fp.visible[:0]
	fp.origIdx = fp.origIdx[:0]
	for i, m := range pending {
		if fp.Deliverable(m, t) {
			fp.visible = append(fp.visible, m)
			fp.origIdx = append(fp.origIdx, i)
		}
	}
	idx := fp.inner().PickMessage(p, fp.visible, t, r)
	if idx < 0 {
		return -1
	}
	if idx >= len(fp.origIdx) {
		// Out of range for pending too, so the engine rejects the
		// inner policy's bad pick as it would unwrapped.
		return len(pending)
	}
	return fp.origIdx[idx]
}
