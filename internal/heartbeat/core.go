package heartbeat

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// gossipCore is a Gossiper's detection algorithm. It has no goroutine,
// lock, channel or clock — every instant is an argument — so what it
// decides is a function of its inputs alone, and it reports that
// through two hooks, either of which may be nil: emit gets each
// Transition, and rearm gets wake whenever wake moves earlier.
type gossipCore struct {
	cfg       GossipConfig
	counters  []uint64    // freshest-known counter per node (index id-1)
	accusedAt []uint64    // counter value the latest accusation was made at
	accused   []bool      // whether any accusation was ever received
	ests      []Estimator // per-peer estimators; nil at self
	present   []bool      // false while a deferred joiner is unseen
	peers     []int       // overlay neighbors; grows via addPeer
	rng       *rand.Rand
	scratch   []int  // fanout sampling buffer
	sentTo    []bool // by destination id; sentCount of them are set
	sentCount int
	rounds    uint64
	muted     bool

	// Suspicion is deadline-driven: suspected is the verdict the
	// transitions so far imply for each node, and wake is an instant no
	// later than the earliest deadline of the nodes still trusted (zero
	// when there is none, or while muted).
	suspected []bool
	wake      time.Time

	emit  func(Transition)
	rearm func(wake time.Time)
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

// newCore builds the state for a valid cfg whose monitoring began at
// epoch, and sweeps at epoch, which sets wake.
func newCore(cfg GossipConfig, epoch time.Time, emit func(Transition), rearm func(time.Time)) *gossipCore {
	c := &gossipCore{
		cfg:       cfg,
		counters:  make([]uint64, cfg.N),
		accusedAt: make([]uint64, cfg.N),
		accused:   make([]bool, cfg.N),
		ests:      make([]Estimator, cfg.N),
		present:   make([]bool, cfg.N),
		peers:     append([]int(nil), cfg.Peers...),
		suspected: make([]bool, cfg.N),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		sentTo:    make([]bool, cfg.N+1),
		emit:      emit,
		rearm:     rearm,
	}
	for i := range c.present {
		c.present[i] = i+1 == cfg.Self || !slices.Contains(cfg.Deferred, i+1)
		if c.present[i] && i+1 != cfg.Self {
			c.ests[i] = cfg.NewEstimator()
			c.ests[i].SetEpoch(epoch)
		}
	}
	c.sweep(epoch)
	return c
}

// roundFrame advances the local counter and returns this round's frame
// and destinations, or nothing while muted. Its suspect bits are the
// tracked verdicts, so a round reads no estimator. The body is new each
// round and never written again.
func (c *gossipCore) roundFrame() (body []byte, dests []int) {
	if c.muted {
		return nil, nil
	}
	c.rounds++
	c.counters[c.cfg.Self-1]++
	body, err := Piggyback{Origin: c.cfg.Self, Counters: c.counters, Suspects: c.suspected}.Encode()
	if err != nil {
		return nil, nil // impossible by construction; drop the round if not
	}
	dests = c.pickDests()
	for _, d := range dests {
		if !c.sentTo[d] {
			c.sentTo[d] = true
			c.sentCount++
		}
	}
	return body, dests
}

// pickDests selects this round's gossip destinations.
func (c *gossipCore) pickDests() []int {
	peers := c.peers
	k := c.cfg.Fanout
	if k <= 0 || k >= len(peers) {
		return peers
	}
	if len(c.scratch) != len(peers) {
		c.scratch = make([]int, len(peers))
	}
	copy(c.scratch, peers)
	// Partial Fisher-Yates: first k entries are a uniform sample.
	for i := 0; i < k; i++ {
		j := i + c.rng.Intn(len(c.scratch)-i)
		c.scratch[i], c.scratch[j] = c.scratch[j], c.scratch[i]
	}
	return c.scratch[:k]
}

// merge folds one parsed frame of c's node count, received at now,
// into local state: counters merge by maximum, each increase is a
// heartbeat arrival (arrive), and accusations are remembered at their
// freshness.
func (c *gossipCore) merge(f *frameView, now time.Time) {
	if c.muted {
		return // paused: a stopped process processes nothing
	}
	escapes := f.escapes
	// Eight nodes at a time — a bitmap byte, four lag bytes — so that the
	// loop over the group's counters makes no call: arrivals and
	// accusations, rare, follow it, each in node order.
	for j, accusing := range f.suspects {
		first := 8 * j
		group := c.counters[first:min(first+8, f.n)]
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
			c.arrive(first+k, sent[k], now)
		}
		for ; accusing != 0; accusing &= accusing - 1 {
			k := bits.TrailingZeros8(accusing)
			if i := first + k; c.present[i] && i+1 != c.cfg.Self && f.origin != i+1 {
				if !c.accused[i] || sent[k] > c.accusedAt[i] {
					c.accused[i] = true
					c.accusedAt[i] = sent[k]
				}
			}
		}
	}
}

// arrive takes counter cnt of node index i, fresher than the one known:
// a heartbeat arrival for that node's estimator — and, for a suspected
// node, the trust transition.
func (c *gossipCore) arrive(i int, cnt uint64, now time.Time) {
	c.counters[i] = cnt
	sighted := !c.present[i]
	if sighted {
		// First sighting of a deferred joiner: activate it with an
		// estimator whose epoch is now, the same bootstrap grace a
		// cluster start gets.
		c.present[i] = true
		if i+1 != c.cfg.Self {
			c.ests[i] = c.cfg.NewEstimator()
			c.ests[i].SetEpoch(now)
		}
	}
	if est := c.ests[i]; est != nil {
		est.Observe(now)
		switch {
		case sighted:
			c.record(i, false, CauseFirstSighting, now)
			c.arm(est.Deadline())
		case c.suspected[i]:
			if !est.Suspect(now) { // a stale arrival changes nothing
				c.suspected[i] = false
				c.record(i, false, CauseFresherCounter, now)
				c.arm(est.Deadline())
			}
		case c.wake.IsZero() || est.Suspect(c.wake):
			// An arrival can pull an adaptive estimator's deadline in (a
			// burst shrinks the mean) or give it its first: before the
			// armed instant, here.
			c.arm(est.Deadline())
		}
	}
}

// record emits the transition of node index i judged at time at.
func (c *gossipCore) record(i int, suspected bool, cause Cause, at time.Time) {
	if c.emit != nil {
		c.emit(Transition{Peer: i + 1, Suspected: suspected, Cause: cause, Counter: c.counters[i], LastArrival: c.ests[i].LastArrival(), At: at})
	}
}

// arm makes sure wake is no later than deadline d.
func (c *gossipCore) arm(d time.Time) {
	if d.IsZero() || !c.wake.IsZero() && !d.Before(c.wake) {
		return
	}
	c.wake = d
	if c.rearm != nil {
		c.rearm(d)
	}
}

// sweep turns every trusted node whose deadline has passed at now to
// suspect — the deadline is exact, so that is its Suspect(now) — and
// sets wake to the earliest deadline left. Arrivals mostly push
// deadlines out without moving wake, so a sweep may find nothing due;
// it costs one Deadline per trusted node about once per timeout.
func (c *gossipCore) sweep(now time.Time) {
	c.wake = time.Time{}
	if c.muted {
		return // a stopped process suspects nobody; setMuted sweeps on resume
	}
	var next time.Time
	for i, est := range c.ests {
		if est == nil || c.suspected[i] {
			continue
		}
		switch d := est.Deadline(); {
		case d.IsZero(): // silence never turns it
		case now.After(d):
			c.suspected[i] = true
			c.record(i, true, CauseOwnDeadline, now)
		case next.IsZero() || d.Before(next):
			next = d
		}
	}
	c.arm(next)
}

// setMuted pauses or resumes the node at now, as SetMuted describes; a
// resume sweeps at once.
func (c *gossipCore) setMuted(muted bool, now time.Time) {
	resumed := c.muted && !muted
	c.muted = muted
	if resumed {
		c.sweep(now)
	}
}

// addPeer adds an overlay neighbor; an existing peer, self or an ID
// outside the cluster changes nothing.
func (c *gossipCore) addPeer(id int) {
	if id >= 1 && id <= c.cfg.N && id != c.cfg.Self && !slices.Contains(c.peers, id) {
		c.peers = append(c.peers, id)
	}
}
