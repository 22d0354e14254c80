// Package trb implements Terminating Reliable Broadcast — the
// crash-stop rephrasing of the Byzantine Generals problem — and the
// P-based algorithm of Proposition 5.1 of "A Realistic Look At
// Failure Detectors" (DSN 2002).
//
// The general variant is implemented: every process p_i is a potential
// initiator and (i, k) denotes the k'th instance initiated by p_i.
// For each instance, every process waits until it receives the value
// from the initiator or suspects the initiator; in the first case it
// proposes that value to an embedded consensus, otherwise it proposes
// nil. The delivered value is the consensus decision. With a Perfect
// detector:
//
//   - validity: a correct initiator is never suspected, so everyone
//     proposes (and thus delivers) its message;
//   - agreement: from consensus agreement;
//   - integrity: values are routed by instance, so a delivered non-nil
//     message was broadcast by its instance's initiator;
//   - nil-accuracy (the realistic reading of §5): nil can only be
//     delivered if the initiator was suspected, and a realistic
//     accurate detector suspects only crashed processes.
package trb

import (
	"fmt"

	"realisticfd/internal/consensus"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// Nil is the reserved value delivered for instances whose initiator
// crashed (the "specific nil value" of the problem statement).
const Nil = consensus.Value("⊥")

// InstanceID encodes an instance (i, k) into the int carried by
// sim.ProtocolEvent.Instance.
func InstanceID(initiator model.ProcessID, seq int) int {
	return int(initiator)*instanceStride + seq
}

// SplitInstanceID decodes an instance id.
func SplitInstanceID(id int) (initiator model.ProcessID, seq int) {
	return model.ProcessID(id / instanceStride), id % instanceStride
}

// instanceStride bounds sequence numbers per initiator.
const instanceStride = 1 << 20

// Broadcast is the automaton running Waves waves of TRB instances:
// in wave k, every process is the initiator of instance (self, k) and
// a participant in (i, k) for every other i. An initiator sends the
// value Script(self, k); a crashed initiator's instances terminate by
// suspicion and deliver Nil.
type Broadcast struct {
	// Waves is the number of instances per initiator.
	Waves int
	// Script supplies the broadcast value for instance (i, k). Nil
	// values are not allowed (Nil is reserved); a nil Script defaults
	// to "m(i,k)".
	Script func(initiator model.ProcessID, seq int) consensus.Value
}

var _ sim.Automaton = Broadcast{}

// DefaultScript names each message after its instance.
func DefaultScript(initiator model.ProcessID, seq int) consensus.Value {
	return consensus.Value(fmt.Sprintf("m(%d,%d)", initiator, seq))
}

// Spawn implements sim.Automaton.
func (b Broadcast) Spawn(self model.ProcessID, n int) sim.Process {
	script := b.Script
	if script == nil {
		script = DefaultScript
	}
	waves := b.Waves
	if waves <= 0 {
		waves = 1
	}
	p := &trbProc{
		self:      self,
		n:         n,
		waves:     waves,
		script:    script,
		instances: make([]trbInstance, waves*n),
	}
	for i := range p.instances {
		seq, init := i/n, model.ProcessID(i%n+1)
		p.instances[i] = trbInstance{id: InstanceID(init, seq), initiator: init, seq: seq}
	}
	return p
}

// Payloads.
type (
	// trbValue is the initiator's broadcast of instance (From, Seq).
	trbValue struct {
		Seq int
		Val consensus.Value
	}
	// trbCons wraps embedded-consensus traffic for one instance. It
	// travels by pointer, carved from the sender's slab.
	trbCons struct {
		Instance int // InstanceID
		Inner    any
	}
)

// String renders the envelope as fmt renders the struct value, which
// is the text the trace digests pin.
func (m *trbCons) String() string { return fmt.Sprintf("{%d %v}", m.Instance, m.Inner) }

// trbInstance is the per-instance state machine.
type trbInstance struct {
	id        int
	initiator model.ProcessID
	seq       int

	// phase: waiting (for value or suspicion) → consensus → done.
	proposed  bool
	delivered bool

	// got is the initiator's value, when received.
	got    consensus.Value
	gotSet bool

	inner  sim.Process
	buffer []*sim.Message // consensus traffic arriving before propose
}

type trbProc struct {
	self   model.ProcessID
	n      int
	waves  int
	script func(model.ProcessID, int) consensus.Value

	started  bool
	selfWave int // next wave this process will initiate

	// instances holds instance (i, k) at index k·n + i−1: wave-major,
	// the order Step drives them in.
	instances []trbInstance

	envs  sim.Slab[trbCons]     // outgoing envelopes
	views sim.Slab[sim.Message] // inner views of received messages
	sends []sim.Send            // the step's Sends, reused from step to step
}

// instance returns the state of instance (initiator, seq), or nil for
// an instance outside this run's waves×n.
func (p *trbProc) instance(initiator model.ProcessID, seq int) *trbInstance {
	if initiator < 1 || int(initiator) > p.n || seq < 0 || seq >= p.waves {
		return nil
	}
	return &p.instances[seq*p.n+int(initiator)-1]
}

// Step implements sim.Process.
func (p *trbProc) Step(in *sim.Message, susp model.ProcessSet, now model.Time) sim.Actions {
	acts := sim.Actions{Sends: p.sends[:0]}

	if !p.started {
		p.started = true
		p.initiateWave(0, &acts)
	}

	if in != nil {
		switch m := in.Payload.(type) {
		case trbValue:
			if inst := p.instance(in.From, m.Seq); inst != nil && !inst.gotSet {
				inst.got = m.Val
				inst.gotSet = true
			}
		case *trbCons:
			if inst := p.instance(SplitInstanceID(m.Instance)); inst != nil && !inst.delivered {
				inner := in.View(&p.views, m.Inner)
				if inst.inner == nil {
					inst.buffer = append(inst.buffer, inner)
				} else {
					p.feed(inst, inner, susp, now, &acts)
				}
			}
		}
	}

	// Drive every live instance of every wave ≤ the frontier.
	for i := range p.instances {
		p.progress(&p.instances[i], susp, now, &acts)
	}
	p.sends = acts.Sends
	return acts
}

// initiateWave broadcasts this process's value for wave k.
func (p *trbProc) initiateWave(k int, acts *sim.Actions) {
	if k >= p.waves {
		return
	}
	p.selfWave = k + 1
	val := p.script(p.self, k)
	inst := p.instance(p.self, k)
	inst.got = val
	inst.gotSet = true
	msg := trbValue{Seq: k, Val: val}
	for q := 1; q <= p.n; q++ {
		id := model.ProcessID(q)
		if id != p.self {
			acts.Sends = append(acts.Sends, sim.Send{To: id, Payload: msg})
		}
	}
}

// progress fires the instance's pending transitions.
func (p *trbProc) progress(inst *trbInstance, susp model.ProcessSet, now model.Time, acts *sim.Actions) {
	if inst.delivered {
		return
	}
	if !inst.proposed {
		var proposal consensus.Value
		switch {
		case inst.gotSet:
			proposal = inst.got
		case susp.Has(inst.initiator):
			proposal = Nil
		default:
			return // keep waiting
		}
		inst.proposed = true
		inst.inner = consensus.SFlooding{
			Proposals: consensus.Proposals{p.self: proposal},
		}.Spawn(p.self, p.n)
		// λ kick emits the round-1 broadcast, then drain the buffer.
		p.feed(inst, nil, susp, now, acts)
		for _, m := range inst.buffer {
			if inst.delivered {
				break
			}
			p.feed(inst, m, susp, now, acts)
		}
		inst.buffer = nil
		return
	}
	if inst.inner != nil {
		p.feed(inst, nil, susp, now, acts)
	}
}

// feed drives the embedded consensus of one instance with a message or
// λ and translates its actions.
func (p *trbProc) feed(inst *trbInstance, in *sim.Message, susp model.ProcessSet, now model.Time, acts *sim.Actions) {
	innerActs := inst.inner.Step(in, susp, now)
	for _, s := range innerActs.Sends {
		env := p.envs.New()
		*env = trbCons{Instance: inst.id, Inner: s.Payload}
		acts.Sends = append(acts.Sends, sim.Send{To: s.To, Payload: env})
	}
	for _, ev := range innerActs.Events {
		if ev.Kind != sim.KindDecide {
			continue
		}
		inst.delivered = true
		inst.inner = nil
		inst.buffer = nil
		v, _ := ev.Value.(consensus.Value)
		acts.Events = append(acts.Events, sim.ProtocolEvent{
			Kind:     sim.KindDeliver,
			Instance: inst.id,
			Value:    v,
		})
		// Rate-limit own stream: initiate wave k+1 once (self, k) is
		// delivered.
		if inst.initiator == p.self && inst.seq+1 == p.selfWave {
			p.initiateWave(p.selfWave, acts)
		}
	}
}
