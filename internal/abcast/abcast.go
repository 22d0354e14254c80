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
	return &abProc{
		self:      self,
		n:         n,
		maxInst:   a.MaxInstances,
		toSend:    append([]string(nil), a.ToBroadcast[self]...),
		known:     map[MsgID]string{},
		delivered: map[MsgID]bool{},
		future:    map[int][]*sim.Message{},
	}
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
	// travels by pointer, carved from the sender's slab.
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

	inst     int
	inner    sim.Process
	proposed bool
	pending  []MsgID // decided batch awaiting full knowledge
	future   map[int][]*sim.Message

	envs  sim.Slab[acEnv]       // outgoing envelopes
	views sim.Slab[sim.Message] // inner views of received messages
	sends []sim.Send            // the step's Sends, reused from step to step
}

// Step implements sim.Process.
func (p *abProc) Step(in *sim.Message, susp model.ProcessSet, now model.Time) sim.Actions {
	acts := sim.Actions{Sends: p.sends[:0]}
	if !p.started {
		p.started = true
		for i, body := range p.toSend {
			id := MsgID{Sender: p.self, Seq: i}
			p.known[id] = body
			p.relay(id, body, &acts)
		}
	}

	var innerIn *sim.Message
	if in != nil {
		switch m := in.Payload.(type) {
		case rbMsg:
			if _, ok := p.known[m.ID]; !ok {
				p.known[m.ID] = m.Body
				p.relay(m.ID, m.Body, &acts)
			}
		case *acEnv:
			switch {
			case m.Instance < p.inst:
				// late traffic for a decided instance
			case m.Instance > p.inst:
				p.future[m.Instance] = append(p.future[m.Instance], in.View(&p.views, m.Inner))
			default:
				innerIn = in.View(&p.views, m.Inner)
			}
		}
	}

	p.progress(innerIn, susp, now, &acts)
	p.sends = acts.Sends
	return acts
}

// relay floods an rbMsg to everyone else (reliable broadcast).
func (p *abProc) relay(id MsgID, body string, acts *sim.Actions) {
	msg := rbMsg{ID: id, Body: body}
	for q := 1; q <= p.n; q++ {
		dst := model.ProcessID(q)
		if dst != p.self {
			acts.Sends = append(acts.Sends, sim.Send{To: dst, Payload: msg})
		}
	}
}

// progress drives the consensus sequence: propose pending messages,
// feed the inner instance, deliver decided batches once fully known.
func (p *abProc) progress(innerIn *sim.Message, susp model.ProcessSet, now model.Time, acts *sim.Actions) {
	for {
		if p.inst >= p.maxInst {
			return
		}
		// A decided batch blocks the sequence until every message in
		// it is known locally (it then delivers and advances).
		if p.pending != nil {
			if !p.knowsAll(p.pending) {
				return
			}
			p.deliverBatch(p.pending, acts)
			p.pending = nil
			p.advance()
			innerIn = nil
			continue
		}
		if !p.proposed {
			p.proposed = true
			p.inner = consensus.SFlooding{
				Proposals: consensus.Proposals{p.self: encodeSet(p.undelivered())},
			}.Spawn(p.self, p.n)
			// λ kick, then drain buffered traffic for this instance,
			// then the message that arrived this very step (if any).
			decided := p.feed(nil, susp, now, acts)
			buf := p.future[p.inst]
			delete(p.future, p.inst)
			for _, m := range buf {
				if decided {
					break
				}
				decided = p.feed(m, susp, now, acts)
			}
			if !decided && innerIn != nil {
				m := innerIn
				innerIn = nil
				decided = p.feed(m, susp, now, acts)
			}
			if decided {
				continue
			}
			return
		}
		if innerIn == nil {
			// Nothing new for the live instance; give it a λ step so
			// suspicion-driven guards re-evaluate.
			if p.feed(nil, susp, now, acts) {
				continue
			}
			return
		}
		m := innerIn
		innerIn = nil
		if p.feed(m, susp, now, acts) {
			continue
		}
		return
	}
}

// feed drives the inner consensus; returns whether it decided (the
// decided batch is parked in p.pending).
func (p *abProc) feed(in *sim.Message, susp model.ProcessSet, now model.Time, acts *sim.Actions) bool {
	if p.inner == nil {
		return false
	}
	innerActs := p.inner.Step(in, susp, now)
	for _, s := range innerActs.Sends {
		env := p.envs.New()
		*env = acEnv{Instance: p.inst, Inner: s.Payload}
		acts.Sends = append(acts.Sends, sim.Send{To: s.To, Payload: env})
	}
	for _, ev := range innerActs.Events {
		if ev.Kind != sim.KindDecide {
			continue
		}
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
		p.pending = batch
		if p.pending == nil {
			p.pending = []MsgID{}
		}
		p.inner = nil
		return true
	}
	return false
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

// advance moves to the next consensus instance.
func (p *abProc) advance() {
	p.inst++
	p.proposed = false
	p.inner = nil
}

// undelivered returns the known-but-undelivered message IDs.
func (p *abProc) undelivered() []MsgID {
	var out []MsgID
	for id := range p.known {
		if !p.delivered[id] {
			out = append(out, id)
		}
	}
	return out
}
