package heartbeat

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"realisticfd/internal/model"
	"realisticfd/internal/transport"
)

// GossipEnvelopeType tags gossip heartbeat traffic on a shared
// transport.
const GossipEnvelopeType = "gossip"

// GossipConfig configures one node's gossip disseminator.
type GossipConfig struct {
	// Self is this node's 1-based ID.
	Self int
	// N is the cluster size. Unlike the simulator's model.ProcessSet
	// (capped at 64), gossip state is plain slices, so N can reach
	// hundreds of nodes.
	N int
	// Peers are the overlay neighbors — the only nodes this node ever
	// sends heartbeats to. With a chord/hypercube overlay this is
	// O(log n) per node, which is the whole point: the exemplar's
	// all-to-all heartbeating collapsed past ~50 nodes on O(n²) frames.
	Peers []int
	// Fanout bounds destinations per round: each round gossips to
	// min(Fanout, len(Peers)) peers, chosen uniformly without
	// replacement. Zero means all overlay neighbors every round.
	Fanout int
	// Interval is the gossip round period.
	Interval time.Duration
	// NewEstimator builds the per-peer arrival estimator. The gossip
	// layer only changes *how arrivals are produced* (counter
	// increases, possibly relayed); the estimator underneath is the
	// same φ-accrual/Chen/fixed logic the QoS sweeps quantify.
	NewEstimator func() Estimator
	// Seed drives the per-round fanout sampling.
	Seed int64
	// Deferred lists nodes absent at startup — mid-run joiners of a
	// fault plan. A deferred node gets no estimator (and is never
	// suspected, locally or by relayed accusation) until its first
	// counter observation activates it; the estimator's epoch is the
	// activation instant, so a joiner bootstraps with the same grace a
	// cluster start gets.
	Deferred []int
}

func (c GossipConfig) validate() error {
	if c.N < 2 {
		return fmt.Errorf("heartbeat: gossip n = %d must be ≥ 2", c.N)
	}
	if c.Self < 1 || c.Self > c.N {
		return fmt.Errorf("heartbeat: gossip self = %d outside [1, %d]", c.Self, c.N)
	}
	if len(c.Peers) == 0 {
		return fmt.Errorf("heartbeat: gossip needs at least one overlay peer")
	}
	for _, p := range c.Peers {
		if p < 1 || p > c.N || p == c.Self {
			return fmt.Errorf("heartbeat: gossip peer %d invalid for self %d, n %d", p, c.Self, c.N)
		}
	}
	if c.Interval <= 0 {
		return fmt.Errorf("heartbeat: gossip interval must be positive")
	}
	if c.NewEstimator == nil {
		return fmt.Errorf("heartbeat: gossip needs an estimator factory")
	}
	for _, d := range c.Deferred {
		if d < 1 || d > c.N {
			return fmt.Errorf("heartbeat: gossip deferred node %d outside [1, %d]", d, c.N)
		}
	}
	return nil
}

// Gossiper is the live failure detector. It disseminates heartbeats by
// gossip rather than all-to-all: each round it increments its own
// heartbeat counter and sends the freshest-known counter vector (plus
// its suspicion verdicts) to a bounded set of overlay neighbors;
// received vectors merge by maximum, and every observed counter
// increase feeds the per-peer estimator as a heartbeat arrival. News
// of any node reaches every other node in O(diameter) rounds while
// each node sends only O(log n) frames per round.
//
// Suspicion piggybacking gives accusations a freshness horizon: an
// accusation of q is remembered together with the counter value it
// was made at, and stays live only while no fresher counter for q is
// known — a paused-then-resumed node heals automatically the moment
// its new heartbeats propagate.
//
// The algorithm is the embedded gossipCore; the Gossiper is its live
// driver, which owns the clock, the loops, the timer armed at the
// core's wake, the transport, the transition queue and the drop counts.
type Gossiper struct {
	mu          sync.Mutex
	*gossipCore // guarded by mu
	timer       *time.Timer
	transitions chan Transition // nil until Transitions is first called

	tr      transport.Transport
	forward chan transport.Envelope

	escapes []uint64 // receive's escape list, touched by no one else

	badFrames, forwardDrops, sendErrors, transitionDrops atomic.Uint64

	stop     chan struct{}
	emitDone chan struct{}
	recvDone chan struct{}
	once     sync.Once
}

// NewGossiper starts gossiping immediately. The gossiper owns the
// transport's receiving end; Close closes the transport.
func NewGossiper(tr transport.Transport, cfg GossipConfig) (*Gossiper, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &Gossiper{
		tr:       tr,
		forward:  make(chan transport.Envelope, 64),
		stop:     make(chan struct{}),
		emitDone: make(chan struct{}),
		recvDone: make(chan struct{}),
	}
	g.timer = time.AfterFunc(time.Hour, g.expire)
	g.timer.Stop()
	g.mu.Lock() // the constructor sweep may arm the timer
	g.gossipCore = newCore(cfg, time.Now(), g.emit, func(wake time.Time) { g.timer.Reset(time.Until(wake)) })
	g.mu.Unlock()
	go g.emitLoop()
	go g.recvLoop()
	return g, nil
}

// Forward yields the non-gossip envelopes received on the shared
// transport (membership, application traffic). The channel closes when
// the gossiper stops.
func (g *Gossiper) Forward() <-chan transport.Envelope { return g.forward }

func (g *Gossiper) emitLoop() {
	defer close(g.emitDone)
	ticker := time.NewTicker(g.cfg.Interval)
	defer ticker.Stop()
	g.round() // first round immediately, not one interval in
	for {
		select {
		case <-ticker.C:
			g.round()
		case <-g.stop:
			return
		}
	}
}

// expire is what the timer runs, on a goroutine of its own each time:
// emitLoop can sit in a Send to a frozen peer's full socket, which is
// exactly when a deadline is about to pass.
func (g *Gossiper) expire() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.stop: // fired before Close stopped the timer: nothing to do, nothing to re-arm
	default:
		g.sweep(time.Now())
	}
}

// round gossips one round of the core: one frame, encoded once, whose
// body every destination's envelope shares.
func (g *Gossiper) round() {
	g.mu.Lock()
	body, dests := g.roundFrame()
	g.mu.Unlock()
	for _, d := range dests {
		env := transport.Envelope{To: model.ProcessID(d), Type: GossipEnvelopeType, Body: body}
		// A loss is silent and the network's business; an error is the
		// transport refusing the frame.
		if g.tr.Send(env) != nil {
			g.sendErrors.Add(1)
		}
	}
}

func (g *Gossiper) recvLoop() {
	defer close(g.recvDone)
	defer close(g.forward)
	for env := range g.tr.Recv() {
		g.receive(env)
	}
}

// receive handles one inbound envelope on recvLoop's goroutine: gossip
// is parsed whole — a frame that fails any check changes nothing but
// the BadFrames count — and then merged, anything else goes to Forward.
// It reads env.Body and keeps no reference to it.
func (g *Gossiper) receive(env transport.Envelope) {
	if env.Type != GossipEnvelopeType {
		select {
		case g.forward <- env:
		default: // slow consumer: drop rather than stall detection
			g.forwardDrops.Add(1)
		}
		return
	}
	f, err := parseFrame(env.Body, g.cfg.N, g.escapes)
	if err != nil {
		g.badFrames.Add(1)
		return
	}
	g.escapes = f.escapes
	// The arrival is stamped under the lock, like every transition: see Now.
	g.mu.Lock()
	g.merge(&f, time.Now())
	g.mu.Unlock()
}

// Transitions returns the queue of this gossiper's transitions, in
// order. Nothing is queued before the first call, so a consumer that
// wants them all calls it before the first can happen, right after
// NewGossiper. The queue is bounded and never blocks the gossiper: a
// transition it has no room for is dropped and counted in
// GossipStats.TransitionDrops. It is not closed.
func (g *Gossiper) Transitions() <-chan Transition {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.transitions == nil {
		// A resume suspects every peer in one sweep and trusts them all
		// again within a round.
		g.transitions = make(chan Transition, 4*g.cfg.N)
	}
	return g.transitions
}

// Now reads the clock under the gossiper's lock. Transitions are
// stamped and queued under it too, so every transition stamped up to
// the returned instant is already in the queue.
func (g *Gossiper) Now() time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return time.Now()
}

// emit is the core's transition hook: it queues tr as Transitions says.
func (g *Gossiper) emit(tr Transition) {
	if g.transitions == nil {
		return
	}
	select {
	case g.transitions <- tr:
	default:
		g.transitionDrops.Add(1)
	}
}

// Verdicts returns the verdict the transitions so far imply for every
// node (index id-1; always false at self): suspected from the node's
// CauseOwnDeadline transition until the arrival that refutes it. It
// evaluates no estimator and does not read now.
func (g *Gossiper) Verdicts(now time.Time) []bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]bool(nil), g.suspected...)
}

// CommunitySuspects returns the IDs suspected either locally — the
// tracked verdicts, which Verdicts reads too, at no estimator call — or
// by a live (non-expired) accusation gossiped from elsewhere: an
// accusation of q holds exactly while no counter for q fresher than the
// accusation is known.
func (g *Gossiper) CommunitySuspects() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []int
	for i := range g.counters {
		if i+1 == g.cfg.Self || !g.present[i] {
			continue // an unseen joiner is absent, not suspect
		}
		if g.suspected[i] || g.accused[i] && g.accusedAt[i] >= g.counters[i] {
			out = append(out, i+1)
		}
	}
	return out
}

// Known returns the IDs this node considers part of the group: every
// initially-present node plus each deferred joiner whose counters have
// been observed. A joiner's first sighting is also a Transition, which
// is what the membership feed admits on.
func (g *Gossiper) Known() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []int
	for i, p := range g.present {
		if p {
			out = append(out, i+1)
		}
	}
	return out
}

// AddPeer adds an overlay neighbor at runtime — the overlay
// re-resolution that makes a mid-run joiner reachable. Adding an
// existing peer (or self) is a no-op.
func (g *Gossiper) AddPeer(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addPeer(id)
}

// Counter returns the freshest-known heartbeat counter for node q.
func (g *Gossiper) Counter(q int) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if q < 1 || q > g.cfg.N {
		return 0
	}
	return g.counters[q-1]
}

// DistinctDestinations returns how many distinct nodes this gossiper
// has ever sent a heartbeat to — the fan-out bound the O(log n)
// overlay is accountable to.
func (g *Gossiper) DistinctDestinations() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sentCount
}

// GossipStats counts the work a Gossiper dropped without telling
// anyone.
type GossipStats struct {
	// BadFrames are gossip envelopes that did not decode as a piggyback
	// for this cluster's size.
	BadFrames uint64
	// ForwardDrops are non-gossip envelopes discarded because the
	// Forward consumer was not keeping up.
	ForwardDrops uint64
	// SendErrors are frames the transport refused (a closed transport,
	// an unregistered peer); frames it lost after accepting them are
	// its own to count.
	SendErrors uint64
	// TransitionDrops are transitions the Transitions queue had no room
	// for: its consumer's picture of the verdicts is off by them.
	TransitionDrops uint64
}

// Stats returns the gossiper's silent-drop counters so far.
func (g *Gossiper) Stats() GossipStats {
	return GossipStats{
		BadFrames:       g.badFrames.Load(),
		ForwardDrops:    g.forwardDrops.Load(),
		SendErrors:      g.sendErrors.Load(),
		TransitionDrops: g.transitionDrops.Load(),
	}
}

// Rounds returns the number of gossip rounds emitted.
func (g *Gossiper) Rounds() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rounds
}

// SetMuted pauses or resumes the gossiper: while muted it emits
// nothing, discards inbound gossip and lets deadlines pass unnoticed —
// the in-process emulation of SIGSTOP for cluster runs that spawn
// goroutines instead of OS processes. On resume it looks at the clock
// at once, as a continued process finds its timer long overdue.
func (g *Gossiper) SetMuted(muted bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.setMuted(muted, time.Now())
}

// Close stops both loops (closing the underlying transport — the
// gossiper owns the receiving end), waits for them, and then stops the
// timer, under the lock that a re-arming receive or expire holds.
func (g *Gossiper) Close() {
	g.once.Do(func() { close(g.stop) })
	<-g.emitDone
	_ = g.tr.Close()
	<-g.recvDone
	g.mu.Lock()
	g.timer.Stop()
	g.mu.Unlock()
}
