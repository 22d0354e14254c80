package heartbeat

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
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
type Gossiper struct {
	cfg     GossipConfig
	tr      transport.Transport
	forward chan transport.Envelope

	mu        sync.Mutex
	counters  []uint64    // freshest-known counter per node (index id-1)
	accusedAt []uint64    // counter value the latest accusation was made at
	accused   []bool      // whether any accusation was ever received
	ests      []Estimator // per-peer estimators; nil at self
	present   []bool      // false while a deferred joiner is unseen
	peers     []int       // overlay neighbors; grows via AddPeer
	rng       *rand.Rand
	scratch   []int  // fanout sampling buffer
	sentTo    []bool // by destination id; sentCount of them are set
	sentCount int
	rounds    uint64
	muted     bool

	// Suspicion is deadline-driven: suspected is the verdict the
	// transitions so far imply for each node, and timer is armed at wake,
	// an instant no later than the earliest deadline of the nodes still
	// trusted (zero when there is none, or while muted).
	suspected   []bool
	timer       *time.Timer
	wake        time.Time
	transitions chan Transition // nil until Transitions is first called

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
	g := newGossiper(tr, cfg)
	go g.emitLoop()
	go g.recvLoop()
	return g, nil
}

// newGossiper builds the state of a gossiper for a valid cfg, with its
// timer armed and neither loop started.
func newGossiper(tr transport.Transport, cfg GossipConfig) *Gossiper {
	g := &Gossiper{
		cfg:       cfg,
		tr:        tr,
		forward:   make(chan transport.Envelope, 64),
		counters:  make([]uint64, cfg.N),
		accusedAt: make([]uint64, cfg.N),
		accused:   make([]bool, cfg.N),
		ests:      make([]Estimator, cfg.N),
		present:   make([]bool, cfg.N),
		peers:     append([]int(nil), cfg.Peers...),
		suspected: make([]bool, cfg.N),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		sentTo:    make([]bool, cfg.N+1),
		stop:      make(chan struct{}),
		emitDone:  make(chan struct{}),
		recvDone:  make(chan struct{}),
	}
	for i := range g.present {
		g.present[i] = true
	}
	for _, d := range cfg.Deferred {
		if d != cfg.Self {
			g.present[d-1] = false
		}
	}
	epoch := time.Now()
	for q := 1; q <= cfg.N; q++ {
		if q == cfg.Self || !g.present[q-1] {
			continue
		}
		g.ests[q-1] = cfg.NewEstimator()
		g.ests[q-1].SetEpoch(epoch)
	}
	g.timer = time.AfterFunc(time.Hour, g.expire)
	g.timer.Stop()
	g.sweepLocked(epoch) // arms it; nobody else holds g yet
	return g
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
	case <-g.stop: // fired as Close stopped the timer: nothing to do, nothing to re-arm
	default:
		g.sweepLocked(time.Now())
	}
}

// round advances the local counter and gossips the state snapshot to
// this round's destinations: one frame, encoded once, whose body every
// destination's envelope shares. Its suspect bits are the tracked
// verdicts, so round reads no estimator and no clock.
func (g *Gossiper) round() {
	g.mu.Lock()
	if g.muted {
		g.mu.Unlock()
		return
	}
	g.rounds++
	g.counters[g.cfg.Self-1]++
	body, err := Piggyback{Origin: g.cfg.Self, Counters: g.counters, Suspects: g.suspected}.Encode()
	dests := g.pickDestsLocked()
	for _, d := range dests {
		if !g.sentTo[d] {
			g.sentTo[d] = true
			g.sentCount++
		}
	}
	g.mu.Unlock()

	if err != nil {
		return // impossible by construction; drop the round if not
	}
	for _, d := range dests {
		env := transport.Envelope{To: model.ProcessID(d), Type: GossipEnvelopeType, Body: body}
		// A loss is silent and the network's business; an error is the
		// transport refusing the frame.
		if g.tr.Send(env) != nil {
			g.sendErrors.Add(1)
		}
	}
}

// pickDestsLocked selects this round's gossip destinations.
func (g *Gossiper) pickDestsLocked() []int {
	peers := g.peers
	k := g.cfg.Fanout
	if k <= 0 || k >= len(peers) {
		return peers
	}
	if len(g.scratch) != len(peers) {
		g.scratch = make([]int, len(peers))
	}
	copy(g.scratch, peers)
	// Partial Fisher-Yates: first k entries are a uniform sample.
	for i := 0; i < k; i++ {
		j := i + g.rng.Intn(len(g.scratch)-i)
		g.scratch[i], g.scratch[j] = g.scratch[j], g.scratch[i]
	}
	return g.scratch[:k]
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
	g.mergeLocked(&f, time.Now())
	g.mu.Unlock()
}

// mergeLocked folds one parsed frame of g's node count into local
// state: counters merge by maximum, each increase is a heartbeat arrival
// (arriveLocked), and accusations are remembered at their freshness.
func (g *Gossiper) mergeLocked(f *frameView, now time.Time) {
	if g.muted {
		return // paused: a stopped process processes nothing
	}
	escapes := f.escapes
	// Eight nodes at a time — a bitmap byte, four lag bytes — so that the
	// loop over the group's counters makes no call: arrivals and
	// accusations, rare, follow it, each in node order.
	for j, accusing := range f.suspects {
		first := 8 * j
		group := g.counters[first:min(first+8, f.n)]
		var lags uint32 // the group's nibbles, node first's lowest
		if quad := f.lags[4*j:]; len(quad) >= 4 {
			lags = binary.LittleEndian.Uint32(quad)
		} else {
			for p, b := range quad {
				lags |= uint32(b) << (8 * p)
			}
		}
		var sent [8]uint64 // the frame's counter of each node in the group
		var news byte      // bit k set when node first+k's counter is fresher
		for k := range sent[:len(group)] {
			lag := uint64(lags & 0xf)
			lags >>= 4
			if lag == lagEscape {
				lag, escapes = escapes[0], escapes[1:]
			}
			sent[k] = f.base - lag
			if sent[k] > group[k] {
				news |= 1 << k
			}
		}
		for ; news != 0; news &= news - 1 {
			k := bits.TrailingZeros8(news)
			g.arriveLocked(first+k, sent[k], now)
		}
		for ; accusing != 0; accusing &= accusing - 1 {
			k := bits.TrailingZeros8(accusing)
			if i := first + k; g.present[i] && i+1 != g.cfg.Self && f.origin != i+1 {
				if !g.accused[i] || sent[k] > g.accusedAt[i] {
					g.accused[i] = true
					g.accusedAt[i] = sent[k]
				}
			}
		}
	}
}

// arriveLocked takes counter c of node index i, fresher than the one
// known: a heartbeat arrival for that node's estimator — and, for a
// suspected node, the trust transition.
func (g *Gossiper) arriveLocked(i int, c uint64, now time.Time) {
	g.counters[i] = c
	sighted := !g.present[i]
	if sighted {
		// First sighting of a deferred joiner: activate it with an
		// estimator whose epoch is now, the same bootstrap grace a
		// cluster start gets.
		g.present[i] = true
		if i+1 != g.cfg.Self {
			g.ests[i] = g.cfg.NewEstimator()
			g.ests[i].SetEpoch(now)
		}
	}
	if est := g.ests[i]; est != nil {
		est.Observe(now)
		switch {
		case sighted:
			g.record(i, false, CauseFirstSighting, now)
			g.armLocked(est.Deadline())
		case g.suspected[i]:
			if !est.Suspect(now) { // a stale arrival changes nothing
				g.suspected[i] = false
				g.record(i, false, CauseFresherCounter, now)
				g.armLocked(est.Deadline())
			}
		case g.wake.IsZero() || est.Suspect(g.wake):
			// An arrival can pull an adaptive estimator's deadline in (a
			// burst shrinks the mean) or give it its first: before the
			// armed instant, here.
			g.armLocked(est.Deadline())
		}
	}
}

// Cause says what a Transition rests on.
type Cause uint8

const (
	// CauseOwnDeadline: the node's own estimator deadline for the peer
	// passed with no fresher counter.
	CauseOwnDeadline Cause = iota
	// CauseFresherCounter: a counter increase for a suspected peer
	// arrived, directly or relayed.
	CauseFresherCounter
	// CauseFirstSighting: the first counter of a deferred joiner arrived;
	// the peer is known (and trusted) from here on.
	CauseFirstSighting
)

func (c Cause) String() string {
	switch c {
	case CauseOwnDeadline:
		return "own-deadline"
	case CauseFresherCounter:
		return "fresher-counter"
	case CauseFirstSighting:
		return "first-sighting"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Transition is one change of what this node holds about a peer, with
// the evidence it was judged on: suspect when the peer's deadline
// expired, trust at the arrival that refuted a suspicion, and the first
// sighting of a deferred joiner (trusted before and after; what changes
// is that the peer is known).
type Transition struct {
	// Peer is the node the verdict is about.
	Peer int
	// Suspected is the verdict from At on.
	Suspected bool
	// Cause is what turned it.
	Cause Cause
	// Counter is the freshest counter known for Peer at At.
	Counter uint64
	// LastArrival is when that counter arrived — At itself unless the
	// cause is the deadline; zero for a peer never heard from.
	LastArrival time.Time
	// At is when the transition happened: the instant the expiry code
	// ran, or the arrival.
	At time.Time
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

// record queues the transition of node index i judged at time at; g.mu
// is held.
func (g *Gossiper) record(i int, suspected bool, cause Cause, at time.Time) {
	if g.transitions == nil {
		return
	}
	select {
	case g.transitions <- Transition{Peer: i + 1, Suspected: suspected, Cause: cause, Counter: g.counters[i], LastArrival: g.ests[i].LastArrival(), At: at}:
	default:
		g.transitionDrops.Add(1)
	}
}

// armLocked makes sure the timer fires no later than deadline d.
func (g *Gossiper) armLocked(d time.Time) {
	if d.IsZero() || !g.wake.IsZero() && !d.Before(g.wake) {
		return
	}
	g.wake = d
	g.timer.Reset(time.Until(d))
}

// sweepLocked turns every trusted node whose deadline has passed at now
// to suspect — the deadline is exact, so that is its Suspect(now) — and
// re-arms the timer at the earliest deadline left. Arrivals mostly push
// deadlines out without telling the timer, so a sweep may find nothing
// due; it costs one Deadline per trusted node about once per timeout.
func (g *Gossiper) sweepLocked(now time.Time) {
	g.wake = time.Time{}
	if g.muted {
		return // a stopped process suspects nobody; SetMuted sweeps on resume
	}
	var next time.Time
	for i, est := range g.ests {
		if est == nil || g.suspected[i] {
			continue
		}
		d := est.Deadline()
		if d.IsZero() {
			continue
		}
		if now.After(d) {
			g.suspected[i] = true
			g.record(i, true, CauseOwnDeadline, now)
			continue
		}
		if next.IsZero() || d.Before(next) {
			next = d
		}
	}
	g.armLocked(next)
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

// Suspects returns the IDs this node currently suspects locally, as
// Verdicts does.
func (g *Gossiper) Suspects() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []int
	for i, s := range g.suspected {
		if s {
			out = append(out, i+1)
		}
	}
	return out
}

// CommunitySuspects returns the IDs suspected either locally — the
// tracked verdicts, which Verdicts and Suspects read too, at no
// estimator call — or by a live (non-expired) accusation gossiped from
// elsewhere: an accusation of q holds exactly while no counter for q
// fresher than the accusation is known.
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
	if id < 1 || id > g.cfg.N || id == g.cfg.Self {
		return
	}
	for _, p := range g.peers {
		if p == id {
			return
		}
	}
	g.peers = append(g.peers, id)
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
	if g.muted == muted {
		return
	}
	g.muted = muted
	if !muted {
		g.sweepLocked(time.Now())
	}
}

// Close stops the timer and both loops (closing the underlying
// transport — the gossiper owns the receiving end) and waits for the
// loops.
func (g *Gossiper) Close() {
	g.once.Do(func() { close(g.stop) })
	<-g.emitDone
	g.timer.Stop()
	_ = g.tr.Close()
	<-g.recvDone
}
