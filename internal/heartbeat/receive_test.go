package heartbeat

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"realisticfd/internal/model"
	"realisticfd/internal/transport"
)

// quietGossiper builds a gossiper's state with neither loop running, so
// that the test alone drives it; its timer is stopped at the end. Its
// estimators' epoch is reset to epoch, so two quiet gossipers of one
// config start equal.
func quietGossiper(tb testing.TB, cfg GossipConfig, epoch time.Time) *Gossiper {
	tb.Helper()
	if cfg.Interval == 0 {
		cfg.Interval = time.Hour
	}
	if cfg.NewEstimator == nil {
		cfg.NewEstimator = func() Estimator { return &FixedTimeout{Timeout: time.Hour} }
	}
	if err := cfg.validate(); err != nil {
		tb.Fatal(err)
	}
	g := newGossiper(newSinkTransport(model.ProcessID(cfg.Self)), cfg)
	tb.Cleanup(func() { g.timer.Stop() })
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, est := range g.ests {
		if est != nil {
			est.SetEpoch(epoch)
		}
	}
	g.sweepLocked(epoch)
	return g
}

// takeAt is receive for a gossip body arriving at now.
func (g *Gossiper) takeAt(body []byte, now time.Time) error {
	f, err := parseFrame(body, g.cfg.N, g.escapes)
	if err != nil {
		return err
	}
	g.escapes = f.escapes
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mergeLocked(&f, now)
	return nil
}

// merge takes pb as if it arrived at now, by the path receive takes.
func (g *Gossiper) merge(pb Piggyback, now time.Time) {
	body, err := pb.Encode()
	if err != nil {
		panic(fmt.Sprintf("merge: %v", err))
	}
	if err := g.takeAt(body, now); err != nil {
		panic(fmt.Sprintf("merge: %v", err))
	}
}

// referenceDecode is the decoder the gossiper used before it parsed in
// place: every counter and every suspicion materialised, node by node.
func referenceDecode(data []byte, wantN int) (Piggyback, error) {
	var pb Piggyback
	if len(data) == 0 {
		return pb, fmt.Errorf("empty piggyback")
	}
	if data[0] != piggybackVersion {
		return pb, fmt.Errorf("piggyback version %d", data[0])
	}
	rest := data[1:]
	var header [3]uint64 // n, origin, base
	for i := range header {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return pb, fmt.Errorf("truncated piggyback header")
		}
		header[i], rest = v, rest[k:]
	}
	n64, origin, base := header[0], header[1], header[2]
	if n64 == 0 || n64 > maxPiggybackNodes {
		return pb, fmt.Errorf("piggyback n = %d", n64)
	}
	n := int(n64)
	if wantN != 0 && n != wantN {
		return pb, fmt.Errorf("piggyback for %d nodes, want %d", n, wantN)
	}
	if origin < 1 || origin > n64 {
		return pb, fmt.Errorf("piggyback origin %d", origin)
	}
	nibbles, bitmapLen := (n+1)/2, (n+7)/8
	if len(rest) < nibbles+bitmapLen {
		return pb, fmt.Errorf("piggyback body is %d bytes", len(rest))
	}
	lags, rest := rest[:nibbles], rest[nibbles:]
	if n%2 == 1 && lags[nibbles-1]>>4 != 0 {
		return pb, fmt.Errorf("piggyback padding nibble is set")
	}
	pb.Origin = int(origin)
	pb.Counters, pb.Suspects = make([]uint64, n), make([]bool, n)
	for i := range pb.Counters {
		lag := uint64(lags[i/2] >> (4 * (i % 2)) & 0xf)
		if lag == lagEscape {
			v, k := binary.Uvarint(rest)
			if k <= 0 {
				return pb, fmt.Errorf("truncated piggyback escape for node %d", i+1)
			}
			rest = rest[k:]
			if base < lagEscape || v > base-lagEscape {
				return pb, fmt.Errorf("piggyback escaped lag of node %d exceeds base %d", i+1, base)
			}
			lag += v
		}
		if lag > base {
			return pb, fmt.Errorf("piggyback lag %d of node %d exceeds base %d", lag, i+1, base)
		}
		pb.Counters[i] = base - lag
	}
	if len(rest) != bitmapLen {
		return pb, fmt.Errorf("piggyback bitmap is %d bytes, want %d", len(rest), bitmapLen)
	}
	if n%8 != 0 && rest[bitmapLen-1]>>(n%8) != 0 {
		return pb, fmt.Errorf("piggyback padding bits are set")
	}
	for i := range pb.Suspects {
		pb.Suspects[i] = rest[i/8]&(1<<(i%8)) != 0
	}
	return pb, nil
}

// referenceMergeLocked is the per-entry merge of a decoded piggyback the
// gossiper used before it merged off the frame.
func (g *Gossiper) referenceMergeLocked(pb Piggyback, now time.Time) {
	if g.muted {
		return
	}
	for i := range g.counters {
		if pb.Counters[i] > g.counters[i] {
			g.counters[i] = pb.Counters[i]
			sighted := !g.present[i]
			if sighted {
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
					if !est.Suspect(now) {
						g.suspected[i] = false
						g.record(i, false, CauseFresherCounter, now)
						g.armLocked(est.Deadline())
					}
				case g.wake.IsZero() || est.Suspect(g.wake):
					g.armLocked(est.Deadline())
				}
			}
		}
		if pb.Suspects[i] && g.present[i] && i+1 != g.cfg.Self && pb.Origin != i+1 {
			if !g.accused[i] || pb.Counters[i] > g.accusedAt[i] {
				g.accused[i] = true
				g.accusedAt[i] = pb.Counters[i]
			}
		}
	}
}

// gossipState is everything a received frame may change.
type gossipState struct {
	Counters, AccusedAt         []uint64
	Accused, Present, Suspected []bool
	LastArrivals                []time.Time
	Wake                        time.Time
	Transitions                 []Transition
	BadFrames, TransitionDrops  uint64
}

// state copies out g's state and takes the transitions queued since the
// last call.
func (g *Gossiper) state() gossipState {
	g.mu.Lock()
	s := gossipState{
		Counters:     append([]uint64(nil), g.counters...),
		AccusedAt:    append([]uint64(nil), g.accusedAt...),
		Accused:      append([]bool(nil), g.accused...),
		Present:      append([]bool(nil), g.present...),
		Suspected:    append([]bool(nil), g.suspected...),
		Wake:         g.wake,
		BadFrames:    g.badFrames.Load(),
		LastArrivals: make([]time.Time, len(g.ests)),
	}
	for i, est := range g.ests {
		if est != nil {
			s.LastArrivals[i] = est.LastArrival()
		}
	}
	g.mu.Unlock()
	s.Transitions = queued(g.Transitions())
	s.TransitionDrops = g.Stats().TransitionDrops
	return s
}

// TestRejectedFrameChangesNothing feeds every malformed frame, and every
// truncation of a valid one, through receive into a gossiper that has
// heard from everyone: each must count as one bad frame and leave the
// state and the transition queue as they were.
func TestRejectedFrameChangesNothing(t *testing.T) {
	bodies := map[int][][]byte{} // by the node count they claim
	for _, data := range malformedFrames {
		n := 3
		if data[1] >= 2 {
			n = int(data[1])
		}
		bodies[n] = append(bodies[n], data)
	}
	// Fresher counters than the warm-up's, an escape, accusations: a
	// partial merge of any prefix would show.
	for _, n := range []int{3, 20} {
		pb := Piggyback{Origin: 2, Counters: make([]uint64, n), Suspects: make([]bool, n)}
		for i := range pb.Counters {
			pb.Counters[i] = 40 - uint64(i%4)
			pb.Suspects[i] = i%3 == 2
		}
		pb.Counters[n-1] = 5 // lag 35: escaped
		data, err := pb.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			bodies[n] = append(bodies[n], data[:cut])
		}
		bodies[n] = append(bodies[n], append(append([]byte{}, data...), 0))
	}

	for n, bad := range bodies {
		g := quietGossiper(t, GossipConfig{Self: 1, N: n, Peers: []int{2}}, time.Now())
		warm := Piggyback{Origin: 2, Counters: make([]uint64, n), Suspects: make([]bool, n)}
		for i := range warm.Counters {
			warm.Counters[i] = 3
		}
		warm.Suspects[n-1] = true
		g.receive(envelope(t, warm))
		before := g.state()
		if before.Counters[1] != 3 || n > 2 && !before.Accused[n-1] || before.LastArrivals[1].IsZero() { // with n = 2 the only other node is the origin
			t.Fatalf("n=%d: the warm-up frame was not taken: %+v", n, before)
		}
		for k, body := range bad {
			g.receive(transport.Envelope{From: 2, To: 1, Type: GossipEnvelopeType, Body: body})
			after := g.state()
			if after.BadFrames != before.BadFrames+1 {
				t.Fatalf("n=%d, frame % x: BadFrames %d → %d, want one more", n, body, before.BadFrames, after.BadFrames)
			}
			after.BadFrames = before.BadFrames
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("n=%d, frame % x (case %d): a refused frame changed the gossiper\nbefore %+v\nafter  %+v", n, body, k, before, after)
			}
			before.BadFrames++
		}
	}
}

// diffCase drives a gossiper through parseFrame and mergeLocked and its
// twin through the reference decoder and merge, on one made-up timeline.
type diffCase struct {
	t        *testing.T
	now      time.Time
	got, ref *Gossiper
}

func newDiffCase(t *testing.T, cfg GossipConfig) *diffCase {
	now := time.Now()
	c := &diffCase{t: t, now: now, got: quietGossiper(t, cfg, now), ref: quietGossiper(t, cfg, now)}
	c.got.Transitions()
	c.ref.Transitions()
	return c
}

// take gives body to both at the current instant and compares them.
func (c *diffCase) take(body []byte) {
	c.t.Helper()
	errGot := c.got.takeAt(body, c.now)
	pb, errRef := referenceDecode(body, c.ref.cfg.N)
	if errRef == nil {
		c.ref.mu.Lock()
		c.ref.referenceMergeLocked(pb, c.now)
		c.ref.mu.Unlock()
	}
	if (errGot == nil) != (errRef == nil) {
		c.t.Fatalf("frame % x: parseFrame says %v, the reference decoder %v", body, errGot, errRef)
	}
	c.compare(fmt.Sprintf("frame % x", body))
}

// advance moves the timeline on by d, firing both timers as they would
// have fired, and compares them.
func (c *diffCase) advance(d time.Duration) {
	c.t.Helper()
	c.now = c.now.Add(d)
	for _, g := range []*Gossiper{c.got, c.ref} {
		g.mu.Lock()
		for w := g.wake; !w.IsZero() && w.Before(c.now); w = g.wake {
			g.sweepLocked(w.Add(time.Nanosecond))
		}
		g.mu.Unlock()
	}
	c.compare(fmt.Sprintf("advance %v", d))
}

// mute is SetMuted on the timeline.
func (c *diffCase) mute(muted bool) {
	c.t.Helper()
	for _, g := range []*Gossiper{c.got, c.ref} {
		g.mu.Lock()
		if g.muted != muted {
			g.muted = muted
			if !muted {
				g.sweepLocked(c.now)
			}
		}
		g.mu.Unlock()
	}
	c.compare(fmt.Sprintf("muted=%v", muted))
}

func (c *diffCase) compare(step string) {
	c.t.Helper()
	if got, ref := c.got.state(), c.ref.state(); !reflect.DeepEqual(got, ref) {
		c.t.Fatalf("after %s the two paths differ:\nparsed    %+v\nreference %+v", step, got, ref)
	}
}

// randomFrame is what some node might gossip to g: counters around the
// ones g knows — some behind by 15 or more, escaped — and accusations of
// anyone, self, origin and absent joiners included.
func randomFrame(rng *rand.Rand, g *Gossiper) []byte {
	n := g.cfg.N
	pb := Piggyback{Origin: 1 + rng.Intn(n), Counters: make([]uint64, n), Suspects: make([]bool, n)}
	g.mu.Lock()
	for i := range pb.Counters {
		c := int64(g.counters[i]) + int64(rng.Intn(7)) - 3
		switch rng.Intn(8) {
		case 0:
			c -= 15 + rng.Int63n(300)
		case 1:
			c += 15 + rng.Int63n(300)
		}
		pb.Counters[i] = uint64(max(c, 0))
		pb.Suspects[i] = rng.Intn(4) == 0
	}
	g.mu.Unlock()
	data, err := pb.Encode()
	if err != nil {
		panic(err)
	}
	if rng.Intn(10) == 0 { // and now and then a byte off
		data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
	}
	return data
}

// diffEstimators are the three estimators at timeouts of minutes, so the
// real timers, armed by the real clock, never fire while a test runs.
var diffEstimators = []func() Estimator{
	func() Estimator { return &FixedTimeout{Timeout: 10 * time.Minute} },
	func() Estimator { return &Chen{Window: 4, Alpha: 5 * time.Minute} },
	func() Estimator {
		return &PhiAccrual{Window: 6, Threshold: 8, MinStdDev: 30 * time.Second, FirstTimeout: 20 * time.Minute}
	},
}

// TestReceiveMatchesReference holds the parse-in-place path to the
// decode-then-merge one it replaced, frame by frame: the same frames
// accepted, and the same counters, accusations, verdicts, timer and
// transitions after each.
func TestReceiveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		cfg := GossipConfig{Self: 1 + rng.Intn(n), N: n, NewEstimator: diffEstimators[trial%3]}
		cfg.Peers = []int{cfg.Self%n + 1}
		for id := 1; id <= n; id++ {
			if rng.Intn(5) == 0 {
				cfg.Deferred = append(cfg.Deferred, id)
			}
		}
		c := newDiffCase(t, cfg)
		for step := 0; step < 150; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				c.mute(!c.got.muted)
			case r < 4:
				c.advance(time.Duration(rng.Intn(15)) * time.Minute)
			default:
				c.advance(time.Duration(rng.Intn(90)) * time.Second)
				c.take(randomFrame(rng, c.got))
			}
		}
	}
}

// FuzzReceiveMatchesReference gives one arbitrary body to a gossiper that
// has heard from everyone and to its reference twin.
func FuzzReceiveMatchesReference(f *testing.F) {
	// The gossiper's node count is 2 + n%40.
	for _, n := range []int{3, 20, 33} {
		for _, dead := range [][]int{nil, {2}, {2, 3}} {
			pb := steadyFrame(n, 300, dead...)
			pb.Origin = 2
			if data, err := pb.Encode(); err == nil {
				f.Add(uint8(n-2), false, uint16(0), data)
				f.Add(uint8(n-2), true, uint16(700), data)
			}
		}
	}
	for _, data := range malformedFrames {
		f.Add(data[1]-2, false, uint16(0), data)
	}
	f.Fuzz(func(t *testing.T, n uint8, muted bool, silence uint16, body []byte) {
		cfg := GossipConfig{Self: 1, N: 2 + int(n%40), Peers: []int{2}, NewEstimator: diffEstimators[n%3]}
		cfg.Deferred = []int{cfg.N}
		c := newDiffCase(t, cfg)
		c.take(randomFrame(rand.New(rand.NewSource(int64(n))), c.got))
		c.advance(time.Duration(silence) * time.Second)
		c.mute(muted)
		c.take(body)
	})
}
