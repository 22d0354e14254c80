package sim

import (
	"fmt"
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

// LinkFaults describes a composable set of link-level faults. Like the
// failure pattern, they are part of a run's environment (§2.3–2.4), set
// as Config.Faults: the engine applies them under any scheduling
// policy, which only picks among the messages they let through. Every
// fault decision is a pure function of the run's fault seed (the first
// draw of the engine's RNG) and the message identity, never of
// scheduling order, so a run replayed with the same Config reproduces
// the exact same losses, delays and partitions, and the Lemma 4.1
// indistinguishability argument keeps its footing under faulty links.
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

// dropped reports whether the plan loses message m forever under the
// lottery seed, at the rate in force at m.SentAt. The lottery hash
// itself never depends on the rate, so two plans that agree on the rate
// at m.SentAt agree on m's fate.
func (lf *LinkFaults) dropped(seed uint64, m *Message) bool {
	pct := lf.dropPctAt(m.SentAt)
	if pct <= 0 {
		return false
	}
	return model.Mix64(seed^uint64(m.ID))%100 < uint64(pct)
}

// extraDelay returns the extra latency the plan imposes on m under the
// lottery seed, drawn from the delay bound in force at m.SentAt.
func (lf *LinkFaults) extraDelay(seed uint64, m *Message) model.Time {
	d := lf.delayBoundAt(m.SentAt)
	if d <= 0 {
		return 0
	}
	return model.Time(model.Mix64(seed^uint64(m.ID)<<1^0xd1b54a32d192ed03) % uint64(d+1))
}

// faultPlane is a run's link faults as the engine applies them: the
// plan, the run's lottery seed and the cuts' adjacency words, plus the
// scratch of each pick. It lives in the RunContext, so its slices are
// recycled run over run; reset rebuilds it from each run's own plan.
type faultPlane struct {
	lf   *LinkFaults
	seed uint64
	// cutAdj[i] is the adjacency of Cuts[i], indexed by process ID up to
	// the cut's highest endpoint: q is in cutAdj[i][p] exactly when the
	// cut severs {p, q}. A membership test is one bit test per message
	// even for the large cuts sparse topologies compile into.
	cutAdj [][]model.ProcessSet
	// visible holds the messages of the last pick the faults let
	// through; visible[i] sits at index origIdx[i] of the queue.
	visible []*Message
	origIdx []int
}

// reset arms the plane for a run under lf with the given lottery seed.
func (fp *faultPlane) reset(lf *LinkFaults, seed uint64) {
	fp.lf, fp.seed = lf, seed
	fp.cutAdj = grow(fp.cutAdj, len(lf.Cuts))
	for i, ec := range lf.Cuts {
		var top model.ProcessID
		for _, e := range ec.Edges {
			top = max(top, e.A, e.B)
		}
		adj := grow(fp.cutAdj[i], int(top)+1)
		clear(adj)
		for _, e := range ec.Edges {
			adj[e.A] = adj[e.A].Add(e.B)
			adj[e.B] = adj[e.B].Add(e.A)
		}
		fp.cutAdj[i] = adj
	}
}

// held reports whether the plan withholds m at time t: it is still in
// its extra-delay window, or an unhealed cut severs its link. Unlike a
// drop, a hold ends.
func (fp *faultPlane) held(m *Message, t model.Time) bool {
	if t < m.SentAt+fp.lf.extraDelay(fp.seed, m) {
		return true
	}
	for i, ec := range fp.lf.Cuts {
		if t < ec.From || t >= ec.Until {
			continue
		}
		if adj := fp.cutAdj[i]; int(m.From) < len(adj) && adj[m.From].Has(m.To) {
			return true
		}
	}
	return false
}

// sift prepares a pick from q at time t. It moves the messages whose
// drop is sealed out of q and onto *dropped: they can never be
// delivered, and left in the queue they would make every later pick
// rescan a growing backlog. It returns the remaining messages that are
// not held at t, in queue order, with origIdx mapping each back to its
// index in q.view(). *dropped stays in ID order: a queue is, and a
// message sifted at a later step was sent after every one sifted
// before it.
func (fp *faultPlane) sift(q *msgQueue, dropped *[]*Message, t model.Time) []*Message {
	fp.visible, fp.origIdx = fp.visible[:0], fp.origIdx[:0]
	live := q.buf[:q.head]
	for _, m := range q.view() {
		if fp.lf.dropped(fp.seed, m) {
			*dropped = append(*dropped, m)
			continue
		}
		if !fp.held(m, t) {
			fp.visible = append(fp.visible, m)
			fp.origIdx = append(fp.origIdx, len(live)-q.head)
		}
		live = append(live, m)
	}
	clear(q.buf[len(live):])
	q.buf = live
	return fp.visible
}
