package consensus

import (
	"sort"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// Rotating is the Chandra-Toueg ◇S-based rotating-coordinator
// consensus algorithm (JACM 1996, Fig. 6.2 structure). It terminates
// when a majority of processes are correct and the detector is
// eventually weakly accurate; agreement and validity hold in every
// run thanks to the timestamp-locking discipline (quorum
// intersection).
//
// Crucially for the paper's story, Rotating is not total: a decision
// consults only ⌈(n+1)/2⌉ processes. Footnote 4 of §4.1 singles this
// algorithm out as the canonical non-total example — and consequently
// it cannot solve consensus when the number of failures is unbounded:
// with a minority alive, every wait for a majority blocks forever.
// Experiment E8 measures exactly that crossover.
type Rotating struct {
	Proposals Proposals
}

var (
	_ sim.Automaton = Rotating{}
	_ sim.Respawner = Rotating{}
)

// Spawn implements sim.Automaton.
func (a Rotating) Spawn(self model.ProcessID, n int) sim.Process {
	return new(rcProc).start(self, n, a.Proposals[self])
}

// Respawn implements sim.Respawner: a process of a previous run at the
// same n starts over, keeping its maps, slab chunks and buffers.
func (a Rotating) Respawn(old sim.Process, self model.ProcessID, n int) sim.Process {
	if p, ok := old.(*rcProc); ok && p.n == n {
		return p.start(self, n, a.Proposals[self])
	}
	return a.Spawn(self, n)
}

// Message payloads. Round numbers start at 1; coordinator of round r
// is ((r-1) mod n) + 1. Each travels as a sim.Ref, carved from its
// sender's slab.
type (
	// rcEstimate is the phase-1 message: a participant's current
	// estimate and the round in which it was last locked.
	rcEstimate struct {
		Round int
		Val   Value
		TS    int
	}
	// rcPropose is the phase-2 message: the coordinator's pick.
	rcPropose struct {
		Round int
		Val   Value
	}
	// rcAck is the phase-3 reply: Ack reports adoption, ¬Ack reports a
	// suspicion-driven refusal.
	rcAck struct {
		Round int
		Ack   bool
	}
	// rcDecide is the reliably-broadcast decision.
	rcDecide struct {
		Val Value
	}
)

type estEntry struct {
	val Value
	ts  int
}

// coordState is the coordinator-side state of one coordinated round.
// A process keeps state for every round it coordinates concurrently:
// Chandra-Toueg's coordinator never abandons a round — participants
// may be waiting on its proposal long after faster processes have
// moved on, and only a proposal or a (post-GST impossible) suspicion
// releases them.
type coordState struct {
	round     int
	estimates []estEntry       // estimates[q] for q ∈ estFrom
	estFrom   model.ProcessSet // the processes whose estimate arrived
	proposed  bool
	propVal   Value
	acks      int
	nacks     int
	replied   model.ProcessSet
	decided   bool // sent rcDecide for this round
}

type rcProc struct {
	self model.ProcessID
	n    int

	round   int // current round as participant; 0 = not started
	est     Value
	ts      int
	waiting bool // as participant: waiting for round's propose

	// earlyPropose buffers proposals that arrive before this
	// participant reaches their round. In the paper's model the
	// message would simply wait in the buffer until the process's
	// wait-statement examines it (§2.3); an event-driven automaton
	// must keep it explicitly or a laggard waits forever on a
	// proposal it already consumed-and-dropped.
	earlyPropose map[int]Value

	coord map[int]*coordState // round → coordinator state
	// coordRounds mirrors coord's keys in increasing order so the
	// per-step progress scan never rebuilds and sorts a key slice
	// (measured as the top allocator of the E8 sweep).
	coordRounds []int
	// roundScratch is the reusable snapshot buffer of coordProgress.
	roundScratch []int
	// news is set when a coordinated round is created or takes a new
	// estimate or reply, and cleared by coordProgress: its guards read
	// only coordState, so without news a scan would fire nothing.
	news bool

	done    bool
	relayed bool

	// What a run leaves for the next, recycled by start: the step's
	// Actions, the coordinator states and their estimates, the payloads
	// sent, and the boxes of the values decided.
	acts      sim.Actions
	states    sim.Slab[coordState]
	entries   sim.Slab[estEntry]
	estimates sim.Slab[rcEstimate]
	proposes  sim.Slab[rcPropose]
	acks      sim.Slab[rcAck]
	decides   sim.Slab[rcDecide]
	boxes     valueBoxes
}

// start makes p process self of n at the start of a run, proposing est:
// every field is reset, the maps cleared and the slabs rewound, since
// what p sent in its last run is dead (see sim.Respawner).
func (p *rcProc) start(self model.ProcessID, n int, est Value) *rcProc {
	early, coord := p.earlyPropose, p.coord
	if early == nil {
		early, coord = map[int]Value{}, map[int]*coordState{}
	}
	clear(early)
	clear(coord)
	p.states.Rewind()
	p.entries.Rewind()
	p.estimates.Rewind()
	p.proposes.Rewind()
	p.acks.Rewind()
	p.decides.Rewind()
	*p = rcProc{
		self:         self,
		n:            n,
		est:          est,
		earlyPropose: early,
		coord:        coord,
		coordRounds:  p.coordRounds[:0],
		roundScratch: p.roundScratch[:0],
		acts:         sim.Actions{Sends: p.acts.Sends[:0], Events: p.acts.Events[:0]},
		states:       p.states,
		entries:      p.entries,
		estimates:    p.estimates,
		proposes:     p.proposes,
		acks:         p.acks,
		decides:      p.decides,
		boxes:        p.boxes,
	}
	return p
}

func (p *rcProc) majority() int { return p.n/2 + 1 }

func (p *rcProc) coordinator(r int) model.ProcessID {
	return model.ProcessID((r-1)%p.n + 1)
}

// Step implements sim.Process. The returned Actions are p's own,
// rewritten by its next step.
func (p *rcProc) Step(in *sim.Message, susp model.ProcessSet, _ model.Time) sim.Actions {
	acts := &p.acts
	acts.Sends, acts.Events = acts.Sends[:0], acts.Events[:0]
	if p.done && p.relayed {
		return *acts
	}

	if in != nil {
		if dec, ok := in.Payload.(sim.Ref[rcDecide]); ok {
			p.decide(dec.V.Val, acts)
			return *acts
		}
		p.absorb(in, acts)
	}
	if p.done {
		return *acts
	}

	if p.round == 0 {
		p.enterRound(1, acts)
	}

	// Participant: waiting for the coordinator's proposal or its
	// suspicion.
	if p.waiting {
		c := p.coordinator(p.round)
		if susp.Has(c) && c != p.self {
			// nack and move on.
			acts.Sends = append(acts.Sends, sim.Send{To: c, Payload: p.acks.Ref(rcAck{Round: p.round, Ack: false})})
			p.enterRound(p.round+1, acts)
		}
	}

	// Coordinator: act on whatever has been collected.
	p.coordProgress(acts)
	return *acts
}

var _ sim.Quiescer = (*rcProc)(nil)

// Quiescent implements sim.Quiescer. A λ step changes nothing once the
// decision is taken and relayed; before that, once the process has
// entered a round, has no coordinator news to scan, and is not waiting
// on a suspected coordinator other than itself (which would nack).
func (p *rcProc) Quiescent(susp model.ProcessSet) bool {
	if p.done && p.relayed {
		return true
	}
	if p.round == 0 || p.news {
		return false
	}
	c := p.coordinator(p.round)
	return !(p.waiting && susp.Has(c) && c != p.self)
}

// enterRound moves the participant into round r, sends its estimate
// to the round's coordinator (locally absorbed when the coordinator is
// self), and consumes a buffered early proposal if one already
// arrived.
func (p *rcProc) enterRound(r int, acts *sim.Actions) {
	p.round = r
	p.waiting = true
	c := p.coordinator(r)
	est := rcEstimate{Round: r, Val: p.est, TS: p.ts}
	if c == p.self {
		p.coordAbsorbEstimate(p.self, est)
	} else {
		acts.Sends = append(acts.Sends, sim.Send{To: c, Payload: p.estimates.Ref(est)})
	}
	if v, ok := p.earlyPropose[r]; ok {
		delete(p.earlyPropose, r)
		p.adoptPropose(r, v, acts)
	}
}

// adoptPropose is phase 3's positive branch: adopt the coordinator's
// value, lock it at this round, ack, and move on.
func (p *rcProc) adoptPropose(r int, v Value, acts *sim.Actions) {
	p.est = v
	p.ts = r
	p.waiting = false
	c := p.coordinator(r)
	ack := rcAck{Round: r, Ack: true}
	if c == p.self {
		p.coordAbsorbAck(p.self, ack)
	} else {
		acts.Sends = append(acts.Sends, sim.Send{To: c, Payload: p.acks.Ref(ack)})
	}
	p.enterRound(r+1, acts)
}

// absorb processes a non-decide message.
func (p *rcProc) absorb(in *sim.Message, acts *sim.Actions) {
	switch m := in.Payload.(type) {
	case sim.Ref[rcEstimate]:
		if p.coordinator(m.V.Round) == p.self {
			p.coordAbsorbEstimate(in.From, *m.V)
		}
	case sim.Ref[rcPropose]:
		switch r := m.V.Round; {
		case r == p.round && p.waiting:
			p.adoptPropose(r, m.V.Val, acts)
		case r > p.round:
			// Early proposal for a round we have not reached: keep it
			// available, as the paper's message buffer would.
			if _, dup := p.earlyPropose[r]; !dup {
				p.earlyPropose[r] = m.V.Val
			}
		}
	case sim.Ref[rcAck]:
		if p.coordinator(m.V.Round) == p.self {
			p.coordAbsorbAck(in.From, *m.V)
		}
	}
}

// coordRound returns (creating if needed) the state of a round this
// process coordinates. Rounds are never abandoned: slower
// participants may depend on their proposals arbitrarily late.
func (p *rcProc) coordRound(r int) *coordState {
	cs, ok := p.coord[r]
	if !ok {
		cs = p.states.New()
		cs.round, cs.estimates = r, p.entries.Carve(p.n+1)
		p.coord[r] = cs
		i := sort.SearchInts(p.coordRounds, r)
		p.coordRounds = append(p.coordRounds, 0)
		copy(p.coordRounds[i+1:], p.coordRounds[i:])
		p.coordRounds[i] = r
		p.news = true
	}
	return cs
}

func (p *rcProc) coordAbsorbEstimate(from model.ProcessID, m rcEstimate) {
	cs := p.coordRound(m.Round)
	if cs.proposed {
		return
	}
	if !cs.estFrom.Has(from) {
		cs.estimates[from] = estEntry{val: m.Val, ts: m.TS}
		cs.estFrom = cs.estFrom.Add(from)
		p.news = true
	}
}

func (p *rcProc) coordAbsorbAck(from model.ProcessID, m rcAck) {
	cs := p.coordRound(m.Round)
	if cs.replied.Has(from) {
		return
	}
	cs.replied = cs.replied.Add(from)
	p.news = true
	if m.Ack {
		cs.acks++
	} else {
		cs.nacks++
	}
}

// coordProgress fires, for every live coordinated round, the
// transitions whose guards hold (rounds iterated in increasing order
// for determinism). It iterates a snapshot: a round created while a
// transition fires is not visited until the next step, exactly as
// when the keys were collected up front. A scan fires every guard it
// finds true, so one with no news since the last scan would fire
// nothing and is skipped; news during a scan (a round created, or a
// self-addressed estimate or ack) brings the next one.
func (p *rcProc) coordProgress(acts *sim.Actions) {
	if !p.news {
		return
	}
	p.news = false
	rounds := append(p.roundScratch[:0], p.coordRounds...)
	p.roundScratch = rounds
	for _, r := range rounds {
		p.coordProgressRound(p.coord[r], acts)
	}
}

func (p *rcProc) coordProgressRound(cs *coordState, acts *sim.Actions) {
	if cs.decided {
		return
	}
	// Phase 2: with a majority of estimates, propose the one locked in
	// the highest round (ties broken by lowest process ID for
	// determinism).
	if !cs.proposed && cs.estFrom.Len() >= p.majority() {
		bestTS := -1
		var bestVal Value
		for q := model.ProcessID(1); int(q) <= p.n; q++ {
			if e := cs.estimates[q]; cs.estFrom.Has(q) && e.ts > bestTS {
				bestTS = e.ts
				bestVal = e.val
			}
		}
		cs.proposed = true
		cs.propVal = bestVal
		acts.Sends = sim.AppendOthers(acts.Sends, p.n, p.self, p.proposes.Ref(rcPropose{Round: cs.round, Val: bestVal}))
		// Deliver the proposal to ourselves directly.
		if p.waiting && p.round == cs.round {
			p.adoptPropose(cs.round, bestVal, acts)
		} else if p.round < cs.round {
			// We coordinate a round we have not reached as a
			// participant (possible when lagging): keep our own
			// proposal available for when we get there.
			if _, dup := p.earlyPropose[cs.round]; !dup {
				p.earlyPropose[cs.round] = bestVal
			}
		}
	}
	// Phase 4: a majority of acks decides; reliable broadcast.
	if cs.proposed && cs.acks >= p.majority() {
		cs.decided = true
		acts.Sends = sim.AppendOthers(acts.Sends, p.n, p.self, p.decides.Ref(rcDecide{Val: cs.propVal}))
		p.decide(cs.propVal, acts)
	}
}

// decide records the decision once and relays it once (the reliable
// broadcast step that makes the decision contagious).
func (p *rcProc) decide(v Value, acts *sim.Actions) {
	if !p.done {
		p.done = true
		acts.Events = append(acts.Events, sim.ProtocolEvent{
			Kind: sim.KindDecide, Instance: 0, Value: p.boxes.box(v),
		})
	}
	if !p.relayed {
		p.relayed = true
		acts.Sends = sim.AppendOthers(acts.Sends, p.n, p.self, p.decides.Ref(rcDecide{Val: v}))
	}
}
