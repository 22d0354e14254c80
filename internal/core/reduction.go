package core

import (
	"fmt"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// Factory builds the consensus automaton run as instance k of the
// T(D⇒P) sequence. Lemma 4.2 requires the algorithm to be total;
// pass a total automaton (e.g. consensus.SFlooding with an accurate
// realistic oracle) for the emulation to be Perfect, or a non-total
// one to watch accuracy break.
type Factory func(instance int) sim.Automaton

// Reduction is the transformation algorithm T(D⇒P) of §4.3: an
// infinite (here: MaxInstances-bounded) sequence of executions of a
// consensus algorithm A, with three additions:
//
//  1. every message carries the information "[sender is alive]";
//  2. a receiver attaches extracted alive-information to every event
//     executed as a consequence of the reception — realized by
//     accumulating, per instance, the union of tags received and
//     stamping it (plus self) on every outgoing message;
//  3. on a decision event, every process whose tag is *not* attached
//     is added to output(P), and never removed.
//
// The emulated output(P) is published as a KindFDOutput protocol event
// at every decision; ExtractEmulatedHistory turns those events into a
// model.History that fd.Classify can test for membership in P.
type Reduction struct {
	// Factory supplies the consensus instances.
	Factory Factory
	// MaxInstances bounds the sequence for finite runs; the emulated
	// completeness property is judged at the horizon (DESIGN.md §2).
	MaxInstances int
}

var _ sim.Automaton = Reduction{}

// Spawn implements sim.Automaton.
func (r Reduction) Spawn(self model.ProcessID, n int) sim.Process {
	if r.MaxInstances <= 0 {
		panic("core: Reduction.MaxInstances must be positive")
	}
	p := &redProc{
		self:    self,
		n:       n,
		factory: r.Factory,
		maxInst: r.MaxInstances,
		future:  map[int][]pendingMsg{},
	}
	p.startInstance(0)
	return p
}

// taggedMsg is the wire envelope: the inner payload of one consensus
// instance plus the alive-tags accumulated along its causal past. It
// travels by pointer, carved from the sender's slab.
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

type pendingMsg struct {
	msg  *sim.Message
	tags model.ProcessSet
}

type redProc struct {
	self    model.ProcessID
	n       int
	factory Factory
	maxInst int

	inst   int // current instance; == maxInst when exhausted
	inner  sim.Process
	tags   model.ProcessSet // alive-tags accumulated in current instance
	future map[int][]pendingMsg
	output model.ProcessSet // cumulative output(P)

	envs  sim.Slab[taggedMsg]   // outgoing envelopes
	views sim.Slab[sim.Message] // inner views of received messages
	sends []sim.Send            // the step's Sends, reused from step to step
}

// startInstance spawns the automaton of instance k and resets tags.
func (p *redProc) startInstance(k int) {
	p.inst = k
	p.tags = model.EmptySet()
	if k < p.maxInst {
		p.inner = p.factory(k).Spawn(p.self, p.n)
	} else {
		p.inner = nil
	}
}

// Step implements sim.Process.
func (p *redProc) Step(in *sim.Message, susp model.ProcessSet, now model.Time) sim.Actions {
	var innerIn *sim.Message
	if in != nil {
		env, ok := in.Payload.(*taggedMsg)
		if !ok {
			return sim.Actions{} // foreign payload; drop
		}
		switch {
		case env.Instance < p.inst || p.inner == nil:
			// Late message for a decided instance: the instance is
			// over at this process; safe to drop (the inner consensus
			// has already decided here).
		case env.Instance > p.inst:
			// Early message for an instance not yet started: buffer
			// with its tags.
			p.future[env.Instance] = append(p.future[env.Instance], pendingMsg{
				msg:  in.View(&p.views, env.Inner),
				tags: env.Tags,
			})
		default:
			p.tags = p.tags.Union(env.Tags)
			innerIn = in.View(&p.views, env.Inner)
		}
	}

	if p.inner == nil {
		return sim.Actions{}
	}

	acts := sim.Actions{Sends: p.sends[:0]}
	p.drive(innerIn, susp, now, &acts)
	p.sends = acts.Sends
	return acts
}

// drive feeds one message (or λ) to the current inner instance; if the
// instance decides, advance spins up the successors.
func (p *redProc) drive(innerIn *sim.Message, susp model.ProcessSet, now model.Time, acts *sim.Actions) {
	inActs := p.inner.Step(innerIn, susp, now)
	if p.handleInnerActions(inActs, acts) {
		p.advance(susp, now, acts)
	}
}

// advance starts the next instance, replays the messages buffered for
// it, and gives it a λ kick so it emits its opening broadcast; if the
// replayed traffic already decides the instance (possible when this
// process lags far behind), advance keeps going.
func (p *redProc) advance(susp model.ProcessSet, now model.Time, acts *sim.Actions) {
	for {
		p.startInstance(p.inst + 1)
		if p.inner == nil {
			return // sequence exhausted
		}
		buf := p.future[p.inst]
		delete(p.future, p.inst)

		decided := false
		// λ kick first: the fresh instance emits its round-1 broadcast
		// before consuming buffered traffic.
		a := p.inner.Step(nil, susp, now)
		if p.handleInnerActions(a, acts) {
			decided = true
		}
		if !decided {
			for _, pm := range buf {
				p.tags = p.tags.Union(pm.tags)
				a := p.inner.Step(pm.msg, susp, now)
				if p.handleInnerActions(a, acts) {
					decided = true
					break // the rest of buf is late traffic for a decided instance
				}
			}
		}
		if !decided {
			return
		}
	}
}

// handleInnerActions wraps inner sends with the current tags and
// rewrites inner events to the current instance; on a decision it
// updates output(P) per rule 3 and publishes it. Returns whether the
// inner instance decided.
func (p *redProc) handleInnerActions(inActs sim.Actions, acts *sim.Actions) bool {
	attach := p.tags.Add(p.self)
	for _, s := range inActs.Sends {
		env := p.envs.New()
		*env = taggedMsg{Instance: p.inst, Tags: attach, Inner: s.Payload}
		acts.Sends = append(acts.Sends, sim.Send{To: s.To, Payload: env})
	}
	decided := false
	for _, ev := range inActs.Events {
		ev.Instance = p.inst
		acts.Events = append(acts.Events, ev)
		if ev.Kind == sim.KindDecide {
			decided = true
			// Rule 3: suspect every process whose [alive] tag is not
			// attached to the decision event.
			newSusp := model.AllProcesses(p.n).Diff(attach)
			p.output = p.output.Union(newSusp)
			acts.Events = append(acts.Events, sim.ProtocolEvent{
				Kind: sim.KindFDOutput, Instance: p.inst, Value: p.output,
			})
		}
	}
	return decided
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
