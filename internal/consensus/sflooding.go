package consensus

import (
	"fmt"
	"slices"
	"strconv"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// SFlooding is the Chandra-Toueg S-based consensus algorithm
// (JACM 1996, Fig. 6.1 structure), the algorithm Proposition 4.3 cites
// for the sufficient direction: it solves uniform consensus with any
// number of crash failures given a Strong (a fortiori Perfect)
// detector.
//
// Structure: n−1 asynchronous flooding rounds in which each process
// broadcasts the proposals it newly learned and waits, for every
// process q, until it receives q's round-r message or suspects q;
// then one vector round exchanging the full estimate vectors V_p; each
// process intersects its own vector with every vector received from a
// non-suspected process and decides the value of the lowest-indexed
// entry of the intersection.
//
// With weak accuracy (some correct c never suspected), every process
// waits for c in every round, every final vector contains V_c, and
// every intersection equals V_c exactly — so even processes that crash
// after deciding decided the same value: uniform agreement.
//
// Run with a detector that never suspects alive processes, every round
// consults every alive process, making the algorithm total (§4.2);
// that is measured, not assumed, by experiment E1.
type SFlooding struct {
	Proposals Proposals
}

var (
	_ sim.Automaton = SFlooding{}
	_ sim.Respawner = SFlooding{}
)

// Spawn implements sim.Automaton: one instance on a host of its own.
func (a SFlooding) Spawn(self model.ProcessID, n int) sim.Process {
	return new(Host).Spawn(self, n, a.Proposals[self])
}

// Respawn implements sim.Respawner: an instance of a previous run at the
// same n starts over on its own host, rewound. Only Spawn puts an sfProc
// in a RunContext's slot, so the host is old's alone.
func (a SFlooding) Respawn(old sim.Process, self model.ProcessID, n int) sim.Process {
	p, ok := old.(*sfProc)
	if !ok || p.n != n {
		return a.Spawn(self, n)
	}
	p.host.Rewind()
	p.host.Retire(p)
	return p.host.Spawn(self, n, a.Proposals[self])
}

// Host runs the S-flooding instances of one process of a wrapper that
// multiplexes them (sim.Mux). Retired instances return to its free list;
// payloads and proposal vectors are carved from its slabs. Its instances
// share one Sends and one Events buffer, which is safe because a wrapper
// consumes an inner step's Actions before it steps another instance. A
// proposal vector v lives until the host is rewound: the payloads sent
// share it, and the trace renders them when the run ends, so a wrapper
// rewinds its host only when it starts a new run. The zero Host is ready
// to use.
type Host struct {
	free    []*sfProc
	vals    sim.Slab[Value]
	floods  sim.Slab[sfFloodMsg]
	vectors sim.Slab[sfVectorMsg]
	sends   []sim.Send
	events  [1]sim.ProtocolEvent
	boxes   valueBoxes // of the values decided, as instances mostly decide alike
}

var _ sim.Host = (*Host)(nil)

// Spawn starts an instance at process self of n, proposing proposal.
func (h *Host) Spawn(self model.ProcessID, n int, proposal Value) sim.Process {
	var p *sfProc
	if k := len(h.free); k > 0 {
		p, h.free = h.free[k-1], h.free[:k-1]
	} else {
		p = new(sfProc)
	}
	sets := slices.Grow(p.received[:0], 2*n+1)[:2*n+1] // both tables
	clear(sets)
	*p = sfProc{
		host:     h,
		self:     self,
		n:        n,
		rounds:   n - 1,
		round:    0, // bumped to 1 by the first step's progress loop
		v:        h.vals.Carve(n + 1),
		known:    model.NewProcessSet(self),
		received: sets[:n], // rounds 1..n-1
		vectors:  sets[n:], // processes 1..n
	}
	p.v[self] = proposal
	return p
}

// Retire implements sim.Host: p decided, or its run ended, and it is
// never stepped again.
func (h *Host) Retire(p sim.Process) { h.free = append(h.free, p.(*sfProc)) }

// Rewind hands the host's payload and vector chunks out again from the
// first, for a new run: everything its instances sent before is dead. It
// keeps the free list and buffers.
func (h *Host) Rewind() {
	h.vals.Rewind()
	h.floods.Rewind()
	h.vectors.Rewind()
}

// sfPhase enumerates the S-flooding phases.
type sfPhase int

const (
	sfFlood  sfPhase = iota // rounds 1..n-1
	sfVector                // vector exchange
	sfDone
)

// valueVec is a partial vector of proposals in dense form: keys is the
// set of processes with an entry and vals[q] the entry of q ∈ keys
// (len(vals) > keys.Max()). A process's proposals are write-once, so a
// message shares its sender's vals and differs only in keys.
type valueVec struct {
	keys model.ProcessSet
	vals []Value
}

// String renders the vector the way fmt renders the
// map[model.ProcessID]Value it replaced — "map[p1:v1 p3:v3]", keys
// ascending — which is the text the trace digests pin.
func (v valueVec) String() string { return string(v.appendTo(make([]byte, 0, 64))) }

func (v valueVec) appendTo(b []byte) []byte {
	b = append(b, "map["...)
	open := len(b)
	v.keys.ForEach(func(q model.ProcessID) bool {
		if len(b) > open {
			b = append(b, ' ')
		}
		b = append(b, q.String()...)
		b = append(b, ':')
		b = append(b, v.vals[q]...)
		return true
	})
	return append(b, ']')
}

// sfFloodMsg is the round-r flood message carrying newly learned
// proposals (the Δ_p of Chandra-Toueg). Like sfVectorMsg, it travels by
// pointer, carved from the sender's host, and renders as fmt renders
// the struct value, which is the text the trace digests pin.
type sfFloodMsg struct {
	Round int
	Delta valueVec
}

func (m *sfFloodMsg) String() string {
	b := strconv.AppendInt(append(make([]byte, 0, 64), '{'), int64(m.Round), 10)
	return string(append(m.Delta.appendTo(append(b, ' ')), '}'))
}

// sfVectorMsg carries the full estimate vector after the last round.
type sfVectorMsg struct {
	Vector valueVec
}

func (m *sfVectorMsg) String() string {
	return string(append(m.Vector.appendTo(append(make([]byte, 0, 64), '{')), '}'))
}

type sfProc struct {
	host   *Host
	self   model.ProcessID
	n      int
	rounds int

	phase sfPhase
	round int // current flood round, 1-based once started

	v     []Value          // v[q] is q's proposal for q ∈ known; write-once
	known model.ProcessSet // proposals learned so far
	sent  model.ProcessSet // proposal keys already broadcast

	received    []model.ProcessSet // received[r] = round-r flood senders
	vectors     []model.ProcessSet // vectors[q] = key set of q's vector, q ∈ vecReceived
	vecReceived model.ProcessSet
}

// Step implements sim.Process.
func (p *sfProc) Step(in *sim.Message, susp model.ProcessSet, _ model.Time) sim.Actions {
	if in != nil {
		p.absorb(in)
	}
	h := p.host
	h.sends = h.sends[:0]
	var acts sim.Actions
	if val, ok := p.progress(susp); ok {
		h.events[0] = sim.ProtocolEvent{Kind: sim.KindDecide, Instance: 0, Value: h.boxes.box(val)}
		acts.Events = h.events[:]
	}
	acts.Sends = h.sends
	return acts
}

// progress fires every enabled transition — guards may already be
// satisfied by buffered messages, letting several fire in one step —
// and returns the decision if this step reached it.
func (p *sfProc) progress(susp model.ProcessSet) (Value, bool) {
	for {
		switch p.phase {
		case sfFlood:
			if p.round > 0 && !p.heardAll(p.received[p.round], susp) {
				return NoValue, false
			}
			if p.round < p.rounds {
				p.round++
				p.floodSends()
				continue
			}
			p.phase = sfVector
			p.vectorSends()

		case sfVector:
			if !p.heardAll(p.vecReceived, susp) {
				return NoValue, false
			}
			p.phase = sfDone
			return p.decide()

		default:
			return NoValue, false
		}
	}
}

// absorb merges an incoming message into local knowledge. Every sender
// and key is in 1..n: the engine delivers only what its processes sent,
// and a payload's keys come from its sender's known set.
func (p *sfProc) absorb(in *sim.Message) {
	switch m := in.Payload.(type) {
	case *sfFloodMsg:
		if m.Round >= 1 && m.Round <= p.rounds {
			p.received[m.Round] = p.received[m.Round].Add(in.From)
		}
		fresh := m.Delta.keys.Diff(p.known)
		fresh.ForEach(func(q model.ProcessID) bool {
			p.v[q] = m.Delta.vals[q]
			return true
		})
		p.known = p.known.Union(fresh)
	case *sfVectorMsg:
		if !p.vecReceived.Has(in.From) {
			p.vectors[in.From] = m.Vector.keys
			p.vecReceived = p.vecReceived.Add(in.From)
		}
	}
}

// floodSends broadcasts the newly learned proposals for the current
// round to every other process and marks the round received from self.
func (p *sfProc) floodSends() {
	delta := p.known.Diff(p.sent)
	p.sent = p.known
	p.received[p.round] = p.received[p.round].Add(p.self)
	m := p.host.floods.New()
	*m = sfFloodMsg{Round: p.round, Delta: valueVec{keys: delta, vals: p.v}}
	p.broadcast(m)
}

// vectorSends broadcasts the full vector and stores our own.
func (p *sfProc) vectorSends() {
	p.vectors[p.self] = p.known
	p.vecReceived = p.vecReceived.Add(p.self)
	m := p.host.vectors.New()
	*m = sfVectorMsg{Vector: valueVec{keys: p.known, vals: p.v}}
	p.broadcast(m)
}

// broadcast queues msg for every other process.
func (p *sfProc) broadcast(msg any) {
	p.host.sends = sim.AppendOthers(p.host.sends, p.n, p.self, msg)
}

// heardAll is the §4 wait condition shared by the flood rounds and the
// vector round: every process is in from (its message was received) or
// currently suspected.
func (p *sfProc) heardAll(from, susp model.ProcessSet) bool {
	return model.AllProcesses(p.n).SubsetOf(from.Union(susp))
}

// decide intersects the vectors received (own vector included) and
// returns the value of the lowest-indexed surviving entry. Only the
// key sets matter: a proposal has one value wherever it is known. An
// empty intersection can only happen when the detector lied (false
// suspicions partitioned knowledge); the paper's S-based algorithm
// never encounters it, and the E2 adversary relies on the fallback to
// the local estimate (lowest-indexed known value) below.
func (p *sfProc) decide() (Value, bool) {
	inter := p.vectors[p.self]
	p.vecReceived.ForEach(func(q model.ProcessID) bool {
		inter = inter.Intersect(p.vectors[q])
		return true
	})
	if inter.IsEmpty() {
		inter = p.known
	}
	// The "first non-⊥ entry" of Chandra-Toueg.
	return p.v[inter.Min()], true
}

// String aids debugging.
func (p *sfProc) String() string {
	return fmt.Sprintf("sf{%v phase=%d round=%d v=%v}", p.self, p.phase, p.round, valueVec{keys: p.known, vals: p.v})
}
