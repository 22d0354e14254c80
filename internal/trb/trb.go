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
	p := &trbProc{self: self, n: n, waves: waves, script: script, instances: make([]trbInstance, waves*n)}
	p.mux.Init(p, &p.host, len(p.instances))
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
	// travels by pointer, carved by the sender's multiplexer.
	trbCons struct {
		Instance int // InstanceID
		Inner    any
	}
)

// String renders the envelope as fmt renders the struct value, which
// is the text the trace digests pin.
func (m *trbCons) String() string { return fmt.Sprintf("{%d %v}", m.Instance, m.Inner) }

// trbInstance is the per-instance state machine: waiting (for the
// value or a suspicion of the initiator), then proposed, while its
// embedded consensus runs in the multiplexer until it delivers.
type trbInstance struct {
	proposed bool
	got      consensus.Value // the initiator's value, when received
	gotSet   bool
}

type trbProc struct {
	self   model.ProcessID
	n      int
	waves  int
	script func(model.ProcessID, int) consensus.Value

	started  bool
	selfWave int // next wave this process will initiate

	// instances holds instance (i, k) at index k·n + i−1: wave-major,
	// the order Step drives them in, and their number in mux.
	instances []trbInstance

	mux  sim.Mux[trbCons]
	host consensus.Host
	acts sim.Actions // the step's, reused from step to step
}

// index returns the index of instance (initiator, seq), or −1 for an
// instance outside this run's waves×n; split inverts it.
func (p *trbProc) index(initiator model.ProcessID, seq int) int {
	if initiator < 1 || int(initiator) > p.n || seq < 0 || seq >= p.waves {
		return -1
	}
	return seq*p.n + int(initiator) - 1
}

func (p *trbProc) split(i int) (model.ProcessID, int) { return model.ProcessID(i%p.n + 1), i / p.n }

// Step implements sim.Process.
func (p *trbProc) Step(in *sim.Message, susp model.ProcessSet, now model.Time) sim.Actions {
	acts := &p.acts
	acts.Sends, acts.Events = acts.Sends[:0], acts.Events[:0]

	if !p.started {
		p.started = true
		p.initiateWave(0, acts)
	}

	if in != nil {
		switch m := in.Payload.(type) {
		case trbValue:
			if i := p.index(in.From, m.Seq); i >= 0 && !p.instances[i].gotSet {
				p.instances[i].got = m.Val
				p.instances[i].gotSet = true
			}
		case *trbCons:
			p.mux.Receive(in, susp, now, acts)
		}
	}

	// Drive every live instance of every wave ≤ the frontier.
	for i := range p.instances {
		p.progress(i, susp, now, acts)
	}
	return *acts
}

// initiateWave broadcasts this process's value for wave k.
func (p *trbProc) initiateWave(k int, acts *sim.Actions) {
	if k >= p.waves {
		return
	}
	p.selfWave = k + 1
	val := p.script(p.self, k)
	inst := &p.instances[p.index(p.self, k)]
	inst.got = val
	inst.gotSet = true
	acts.Sends = sim.AppendOthers(acts.Sends, p.n, p.self, trbValue{Seq: k, Val: val})
}

// progress fires instance i's pending transitions: once its proposal is
// known (the value, or Nil on suspicion of the initiator), the embedded
// consensus starts and replays the traffic that arrived before; after
// that it takes a λ step every step until it delivers.
func (p *trbProc) progress(i int, susp model.ProcessSet, now model.Time, acts *sim.Actions) {
	inst := &p.instances[i]
	if inst.proposed {
		if p.mux.Running(i) {
			p.mux.Step(i, nil, susp, now, acts)
		}
		return
	}
	proposal := inst.got
	switch initiator, _ := p.split(i); {
	case inst.gotSet:
	case susp.Has(initiator):
		proposal = Nil
	default:
		return // keep waiting
	}
	inst.proposed = true
	p.mux.Start(i, p.host.Spawn(p.self, p.n, proposal), susp, now, acts)
}

// Instance implements sim.Wrapper.
func (p *trbProc) Instance(env *trbCons) int { return p.index(SplitInstanceID(env.Instance)) }

// Open implements sim.Wrapper.
func (p *trbProc) Open(env *trbCons) any { return env.Inner }

// Seal implements sim.Wrapper.
func (p *trbProc) Seal(env *trbCons, k int, inner any) {
	*env = trbCons{Instance: InstanceID(p.split(k)), Inner: inner}
}

// Decided implements sim.Wrapper: the decision is delivered.
func (p *trbProc) Decided(k int, ev sim.ProtocolEvent, acts *sim.Actions) {
	initiator, seq := p.split(k)
	acts.Events = append(acts.Events, sim.ProtocolEvent{Kind: sim.KindDeliver, Instance: InstanceID(initiator, seq), Value: ev.Value})
	// Rate-limit own stream: initiate wave k+1 once (self, k) is
	// delivered.
	if initiator == p.self && seq+1 == p.selfWave {
		p.initiateWave(p.selfWave, acts)
	}
}
