// Package abcast implements atomic broadcast by reduction to
// consensus, the equivalence the paper leans on in §1.1 ("solving
// consensus is equivalent to solving atomic broadcast ... with
// reliable channels"): messages are disseminated by reliable
// broadcast, and a sequence of consensus instances agrees on the next
// batch of message identifiers to deliver; batches are delivered in a
// deterministic order.
//
// Because the embedded consensus is the S-based flooding algorithm
// (total, any number of failures), the resulting atomic broadcast
// inherits the paper's headline property: with a realistic Perfect
// detector it works with unbounded crashes — and by Proposition 4.3
// nothing weaker (realistic) could.
package abcast

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"realisticfd/internal/consensus"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// MsgID identifies an abcast message: the Seq'th message of Sender.
type MsgID struct {
	Sender model.ProcessID
	Seq    int
}

// Less orders message IDs deterministically (sender, then sequence);
// batches are delivered in this order.
func (m MsgID) Less(o MsgID) bool {
	if m.Sender != o.Sender {
		return m.Sender < o.Sender
	}
	return m.Seq < o.Seq
}

// String renders "s.q".
func (m MsgID) String() string {
	return strconv.Itoa(int(m.Sender)) + "." + strconv.Itoa(m.Seq)
}

// parseMsgID inverts String.
func parseMsgID(s string) (MsgID, error) {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return MsgID{}, fmt.Errorf("abcast: malformed message id %q", s)
	}
	snd, err := strconv.Atoi(s[:dot])
	if err != nil {
		return MsgID{}, fmt.Errorf("abcast: malformed sender in %q: %w", s, err)
	}
	seq, err := strconv.Atoi(s[dot+1:])
	if err != nil {
		return MsgID{}, fmt.Errorf("abcast: malformed seq in %q: %w", s, err)
	}
	return MsgID{Sender: model.ProcessID(snd), Seq: seq}, nil
}

// emptySet is the consensus value proposing "no messages pending".
const emptySet = consensus.Value("∅")

// encodeSet canonically encodes a batch proposal.
func encodeSet(ids []MsgID) consensus.Value {
	if len(ids) == 0 {
		return emptySet
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return consensus.Value(strings.Join(parts, ","))
}

// decodeSet inverts encodeSet, returning IDs in delivery order.
func decodeSet(v consensus.Value) ([]MsgID, error) {
	if v == emptySet || v == consensus.NoValue {
		return nil, nil
	}
	parts := strings.Split(string(v), ",")
	out := make([]MsgID, 0, len(parts))
	for _, p := range parts {
		id, err := parseMsgID(p)
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// Atomic is the atomic-broadcast automaton: every process reliably
// broadcasts its scripted payloads, and a sequence of consensus
// instances orders them. Deliveries appear as KindDeliver events
// whose Value is the Delivery struct.
type Atomic struct {
	// ToBroadcast lists each process's messages (payload bodies).
	ToBroadcast map[model.ProcessID][]string
	// MaxInstances bounds the consensus sequence.
	MaxInstances int
}

var _ sim.Automaton = Atomic{}

// Delivery is the payload of an abcast KindDeliver event.
type Delivery struct {
	ID   MsgID
	Body string
}

// Spawn implements sim.Automaton.
func (a Atomic) Spawn(self model.ProcessID, n int) sim.Process {
	if a.MaxInstances <= 0 {
		panic("abcast: Atomic.MaxInstances must be positive")
	}
	p := &abProc{
		self:      self,
		n:         n,
		maxInst:   a.MaxInstances,
		toSend:    append([]string(nil), a.ToBroadcast[self]...),
		known:     map[MsgID]string{},
		delivered: map[MsgID]bool{},
	}
	p.mux.Init(p, &p.host, a.MaxInstances)
	return p
}

// Payloads.
type (
	// rbMsg is the reliable-broadcast dissemination of one message;
	// receivers relay it once so crashed senders' messages still reach
	// everyone.
	rbMsg struct {
		ID   MsgID
		Body string
	}
	// acEnv wraps embedded-consensus traffic for one instance. It
	// travels by pointer, carved by the sender's multiplexer.
	acEnv struct {
		Instance int
		Inner    any
	}
)

// String renders the envelope as fmt renders the struct value, which
// is the text the trace digests pin.
func (m *acEnv) String() string { return fmt.Sprintf("{%d %v}", m.Instance, m.Inner) }

type abProc struct {
	self    model.ProcessID
	n       int
	maxInst int

	started bool
	toSend  []string

	known     map[MsgID]string
	delivered map[MsgID]bool

	inst    int     // current instance: running, or decided with pending set
	pending []MsgID // decided batch awaiting full knowledge

	mux  sim.Mux[acEnv]
	host consensus.Host
	acts sim.Actions // the step's, reused from step to step
}

// Step implements sim.Process.
func (p *abProc) Step(in *sim.Message, susp model.ProcessSet, now model.Time) sim.Actions {
	acts := &p.acts
	acts.Sends, acts.Events = acts.Sends[:0], acts.Events[:0]
	if !p.started {
		p.started = true
		for i, body := range p.toSend {
			id := MsgID{Sender: p.self, Seq: i}
			p.known[id] = body
			p.relay(id, body, acts)
		}
	}

	stepped := false
	if in != nil {
		switch m := in.Payload.(type) {
		case rbMsg:
			if _, ok := p.known[m.ID]; !ok {
				p.known[m.ID] = m.Body
				p.relay(m.ID, m.Body, acts)
			}
		case *acEnv:
			stepped, _ = p.mux.Receive(in, susp, now, acts)
		}
	}

	p.progress(stepped, susp, now, acts)
	return *acts
}

// relay floods an rbMsg to everyone else (reliable broadcast).
func (p *abProc) relay(id MsgID, body string, acts *sim.Actions) {
	acts.Sends = sim.AppendOthers(acts.Sends, p.n, p.self, rbMsg{ID: id, Body: body})
}

// progress drives the consensus sequence: deliver a decided batch once
// it is fully known, propose the pending messages to the next instance
// (which replays the traffic buffered for it), and give a running
// instance that the step's message did not reach a λ step, so
// suspicion-driven guards re-evaluate.
func (p *abProc) progress(stepped bool, susp model.ProcessSet, now model.Time, acts *sim.Actions) {
	for p.inst < p.maxInst {
		var decided bool
		switch {
		case p.pending != nil:
			if !p.knowsAll(p.pending) {
				return
			}
			p.deliverBatch(p.pending, acts)
			p.pending = nil
			p.inst++
			continue
		case !p.mux.Running(p.inst):
			proposal := encodeSet(p.undelivered())
			decided = p.mux.Start(p.inst, p.host.Spawn(p.self, p.n, proposal), susp, now, acts)
		case !stepped:
			decided = p.mux.Step(p.inst, nil, susp, now, acts)
		}
		if !decided {
			return
		}
	}
}

// Instance implements sim.Wrapper.
func (p *abProc) Instance(env *acEnv) int { return env.Instance }

// Open implements sim.Wrapper.
func (p *abProc) Open(env *acEnv) any { return env.Inner }

// Seal implements sim.Wrapper.
func (p *abProc) Seal(env *acEnv, k int, inner any) { *env = acEnv{Instance: k, Inner: inner} }

// Decided implements sim.Wrapper: the decided batch, less what was
// already delivered, waits in pending until every body is known.
func (p *abProc) Decided(_ int, ev sim.ProtocolEvent, _ *sim.Actions) {
	v, _ := ev.Value.(consensus.Value)
	ids, err := decodeSet(v)
	if err != nil {
		// A malformed decision indicates a protocol bug; deliver
		// nothing for this instance rather than corrupt order.
		ids = nil
	}
	batch := ids[:0]
	for _, id := range ids {
		if !p.delivered[id] {
			batch = append(batch, id)
		}
	}
	if batch == nil {
		batch = []MsgID{}
	}
	p.pending = batch
}

// knowsAll reports whether every message of the batch has a known
// body.
func (p *abProc) knowsAll(batch []MsgID) bool {
	for _, id := range batch {
		if _, ok := p.known[id]; !ok {
			return false
		}
	}
	return true
}

// deliverBatch emits deliveries in deterministic (sender, seq) order.
func (p *abProc) deliverBatch(batch []MsgID, acts *sim.Actions) {
	for _, id := range batch {
		p.delivered[id] = true
		acts.Events = append(acts.Events, sim.ProtocolEvent{
			Kind:     sim.KindDeliver,
			Instance: p.inst,
			Value:    Delivery{ID: id, Body: p.known[id]},
		})
	}
}

// undelivered returns the known-but-undelivered message IDs.
func (p *abProc) undelivered() []MsgID {
	var out []MsgID
	// order-free: the one caller hands the result straight to encodeSet,
	// whose sort.Slice by MsgID.Less fixes the order.
	for id := range p.known {
		if !p.delivered[id] {
			out = append(out, id)
		}
	}
	return out
}
