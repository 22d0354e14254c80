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
	"math/bits"

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

var (
	_ sim.Automaton = Broadcast{}
	_ sim.Respawner = Broadcast{}
)

// DefaultScript names each message after its instance.
func DefaultScript(initiator model.ProcessID, seq int) consensus.Value {
	return consensus.Value(fmt.Sprintf("m(%d,%d)", initiator, seq))
}

// Spawn implements sim.Automaton.
func (b Broadcast) Spawn(self model.ProcessID, n int) sim.Process {
	return b.start(new(trbProc), self, n)
}

// Respawn implements sim.Respawner: a process of a previous TRB run at
// the same n starts over, keeping its multiplexer's and host's buffers
// and slab chunks.
func (b Broadcast) Respawn(old sim.Process, self model.ProcessID, n int) sim.Process {
	if p, ok := old.(*trbProc); ok && p.n == n {
		return b.start(p, self, n)
	}
	return b.Spawn(self, n)
}

// start makes p process self of n at the start of a run.
func (b Broadcast) start(p *trbProc, self model.ProcessID, n int) *trbProc {
	p.script = b.Script
	if p.script == nil {
		p.script = DefaultScript
	}
	p.waves = max(b.Waves, 1)
	p.self, p.n = self, n
	p.started, p.selfWave = false, 0
	p.instances = append(p.instances[:0], make([]trbInstance, p.waves*n)...)
	p.ready = append(p.ready[:0], make([]uint64, (len(p.instances)+63)/64)...)
	p.mux.Init(p, &p.host, len(p.instances))
	p.host.Rewind()
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
	selfWave int              // next wave this process will initiate
	last     model.ProcessSet // the detector output of the last step

	// instances holds instance (i, k) at index k·n + i−1: wave-major,
	// the order Step drives them in, and their number in mux.
	instances []trbInstance
	// ready marks, one bit per instance, those that may move although
	// the detector output is the last step's: see Step.
	ready []uint64

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

	walkAll := !p.started || susp != p.last
	if !p.started {
		p.started = true
		p.initiateWave(0, acts)
	}
	p.last = susp

	if in != nil {
		switch m := in.Payload.(type) {
		case trbValue:
			if i := p.index(in.From, m.Seq); i >= 0 && !p.instances[i].gotSet {
				p.instances[i].got = m.Val
				p.instances[i].gotSet = true
				p.mark(i)
			}
		case *trbCons:
			p.mux.Receive(in, susp, now, acts)
		}
	}

	// Drive the instances in index order. After every step, progress
	// under that step's output would change no instance: each running
	// one has stepped under it (Mux.Step skips the λ step), and each
	// waiting one has neither its value nor a suspicion of its
	// initiator. Under an unchanged output only a marked instance, one
	// that got its value since, can move; so only those are walked.
	// Starting instance i marks only instances after i (initiateWave's
	// next wave), which the walk still reaches.
	if walkAll {
		for i := range p.instances {
			p.progress(i, susp, now, acts)
		}
		clear(p.ready)
		return *acts
	}
	for w := range p.ready {
		for p.ready[w] != 0 {
			b := bits.TrailingZeros64(p.ready[w])
			p.ready[w] &^= 1 << b
			p.progress(w*64+b, susp, now, acts)
		}
	}
	return *acts
}

// mark adds instance i to the instances the next walk visits.
func (p *trbProc) mark(i int) { p.ready[i/64] |= 1 << (i % 64) }

// initiateWave broadcasts this process's value for wave k.
func (p *trbProc) initiateWave(k int, acts *sim.Actions) {
	if k >= p.waves {
		return
	}
	p.selfWave = k + 1
	val := p.script(p.self, k)
	i := p.index(p.self, k)
	inst := &p.instances[i]
	inst.got = val
	inst.gotSet = true
	p.mark(i)
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
