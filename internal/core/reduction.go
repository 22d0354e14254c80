package core

import (
	"fmt"

	"realisticfd/internal/consensus"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// Reduction is the transformation algorithm T(D⇒P) of §4.3: an
// infinite (here: MaxInstances-bounded) sequence of executions of a
// consensus algorithm A, here S-flooding, with three additions:
//
//  1. every message carries the information "[sender is alive]";
//  2. a receiver attaches extracted alive-information to every event
//     executed as a consequence of the reception — realized by
//     accumulating, per instance, the union of tags received and
//     stamping it (plus self) on every outgoing message;
//  3. on a decision event, every process whose tag is *not* attached
//     is added to output(P), and never removed.
//
// Lemma 4.2 requires A to be total: S-flooding is, with an accurate
// realistic oracle, and then the emulation is Perfect; with a noisy
// oracle it is not, and accuracy breaks.
//
// The emulated output(P) is published as a KindFDOutput protocol event
// at every decision; ExtractEmulatedHistory turns those events into a
// model.History that fd.Classify can test for membership in P.
type Reduction struct {
	// Proposals are every instance's S-flooding proposals.
	Proposals consensus.Proposals
	// MaxInstances bounds the sequence for finite runs; the emulated
	// completeness property is judged at the horizon (DESIGN.md §2).
	MaxInstances int
}

var (
	_ sim.Automaton = Reduction{}
	_ sim.Respawner = Reduction{}
)

// Spawn implements sim.Automaton.
func (r Reduction) Spawn(self model.ProcessID, n int) sim.Process {
	return r.start(new(redProc), self, n)
}

// Respawn implements sim.Respawner: a process of a previous reduction
// run at the same n starts over, keeping its multiplexer's and host's
// buffers and slab chunks.
func (r Reduction) Respawn(old sim.Process, self model.ProcessID, n int) sim.Process {
	if p, ok := old.(*redProc); ok && p.n == n {
		return r.start(p, self, n)
	}
	return r.Spawn(self, n)
}

// start makes p process self of n at the start of a run.
func (r Reduction) start(p *redProc, self model.ProcessID, n int) *redProc {
	if r.MaxInstances <= 0 {
		panic("core: Reduction.MaxInstances must be positive")
	}
	p.self, p.n, p.proposal, p.maxInst = self, n, r.Proposals[self], r.MaxInstances
	p.inst, p.tags, p.output = 0, model.EmptySet(), model.EmptySet()
	p.mux.Init(p, &p.host, r.MaxInstances)
	p.host.Rewind()
	p.mux.Spawn(0, p.host.Spawn(self, n, p.proposal))
	return p
}

// taggedMsg is the wire envelope: the inner payload of one consensus
// instance plus the alive-tags accumulated along its causal past. It
// travels by pointer, carved by the sender's multiplexer.
type taggedMsg struct {
	Instance int
	Tags     model.ProcessSet
	Inner    any
}

// String renders the envelope as fmt renders the struct value, which
// is the text the trace digests pin.
func (m *taggedMsg) String() string {
	return fmt.Sprintf("{%d %v %v}", m.Instance, m.Tags, m.Inner)
}

type redProc struct {
	self     model.ProcessID
	n        int
	proposal consensus.Value
	maxInst  int

	inst   int              // current instance; MaxInstances when exhausted
	tags   model.ProcessSet // alive-tags accumulated in current instance
	output model.ProcessSet // cumulative output(P)

	mux  sim.Mux[taggedMsg]
	host consensus.Host
	acts sim.Actions // the step's, reused from step to step
}

// Step implements sim.Process. The current instance steps once, with
// the message if it is the instance's and with λ otherwise; when it
// decides, the next instance starts, replays the messages buffered for
// it and may decide in turn (possible when this process lags far
// behind).
func (p *redProc) Step(in *sim.Message, susp model.ProcessSet, now model.Time) sim.Actions {
	acts := &p.acts
	acts.Sends, acts.Events = acts.Sends[:0], acts.Events[:0]
	stepped, decided := false, false
	if in != nil {
		stepped, decided = p.mux.Receive(in, susp, now, acts)
	}
	if !stepped && p.inst < p.maxInst {
		decided = p.mux.Step(p.inst, nil, susp, now, acts)
	}
	for decided {
		p.inst++
		p.tags = model.EmptySet()
		decided = p.inst < p.maxInst && p.mux.Start(p.inst, p.host.Spawn(p.self, p.n, p.proposal), susp, now, acts)
	}
	return *acts
}

// Instance implements sim.Wrapper.
func (p *redProc) Instance(env *taggedMsg) int { return env.Instance }

// Open implements sim.Wrapper: by rule 2 the receiver takes on the
// tags of every message presented to the current instance.
func (p *redProc) Open(env *taggedMsg) any {
	p.tags = p.tags.Union(env.Tags)
	return env.Inner
}

// Seal implements sim.Wrapper: by rule 1 the tags, self included,
// travel with every message.
func (p *redProc) Seal(env *taggedMsg, k int, inner any) {
	*env = taggedMsg{Instance: k, Tags: p.tags.Add(p.self), Inner: inner}
}

// Decided implements sim.Wrapper: by rule 3 every process whose tag is
// not attached to the decision is suspected, and output(P) published.
func (p *redProc) Decided(k int, ev sim.ProtocolEvent, acts *sim.Actions) {
	p.output = p.output.Union(model.AllProcesses(p.n).Diff(p.tags.Add(p.self)))
	acts.Events = append(acts.Events, ev, sim.ProtocolEvent{Kind: sim.KindFDOutput, Instance: k, Value: p.output})
}

// ExtractEmulatedHistory converts the KindFDOutput events of a
// reduction trace into a failure-detector history: the value of
// output(P)_p sampled at every decision event of p. The caller feeds
// it to fd.Classify together with the run's pattern to judge whether
// the emulation is Perfect (Lemma 4.2 / experiment E3).
func ExtractEmulatedHistory(tr *sim.Trace) (*model.History, error) {
	h := model.NewHistory(tr.N)
	for _, le := range tr.ProtocolEvents(sim.KindFDOutput) {
		set, ok := le.Event.Value.(model.ProcessSet)
		if !ok {
			return nil, fmt.Errorf("core: fd-output event at t=%d carries %T, want ProcessSet", le.T, le.Event.Value)
		}
		h.Record(le.P, le.T, set)
	}
	return h, nil
}

// InstancesDecided returns, per process, how many consensus instances
// it decided in the reduction run — the experiments use it to confirm
// the sequence made progress at every correct process.
func InstancesDecided(tr *sim.Trace) map[model.ProcessID]int {
	out := make(map[model.ProcessID]int, tr.N)
	for _, d := range tr.Decisions(sim.AnyInstance) {
		out[d.P]++
	}
	return out
}
