package heartbeat

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// quietConfig fills in what a test leaves out of cfg: node 1, and a
// round period and a timeout of an hour.
func quietConfig(cfg GossipConfig) GossipConfig {
	if cfg.Self == 0 {
		cfg.Self = 1
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Hour
	}
	if cfg.NewEstimator == nil {
		cfg.NewEstimator = fixed(time.Hour)
	}
	return cfg
}

// quietCore is a gossip core the test alone drives, on instants it makes
// up: it keeps what the core emits, and takes a body the way the
// driver's receive does.
type quietCore struct {
	*gossipCore
	emitted   []Transition
	escapes   []uint64
	badFrames uint64
}

func newQuietCore(tb testing.TB, cfg GossipConfig, epoch time.Time) *quietCore {
	tb.Helper()
	cfg = quietConfig(cfg)
	if err := cfg.validate(); err != nil {
		tb.Fatal(err)
	}
	q := &quietCore{}
	q.gossipCore = newCore(cfg, epoch, func(tr Transition) { q.emitted = append(q.emitted, tr) }, nil)
	return q
}

// takeAt is receive for a gossip body arriving at now.
func (q *quietCore) takeAt(body []byte, now time.Time) error {
	f, err := parseFrame(body, q.cfg.N, q.escapes)
	if err != nil {
		q.badFrames++
		return err
	}
	q.escapes = f.escapes
	q.merge(&f, now)
	return nil
}

// take takes pb as if it arrived at now, by the path receive takes.
func (q *quietCore) take(pb Piggyback, now time.Time) {
	body, err := pb.Encode()
	if err != nil {
		panic(fmt.Sprintf("take: %v", err))
	}
	if err := q.takeAt(body, now); err != nil {
		panic(fmt.Sprintf("take: %v", err))
	}
}

// drain returns the transitions emitted since the last call.
func (q *quietCore) drain() []Transition {
	out := q.emitted
	q.emitted = nil
	return out
}

// fireUntil does what the driver's timer would have done up to now: a
// sweep a nanosecond after each wake before it.
func (q *quietCore) fireUntil(now time.Time) {
	for w := q.wake; !w.IsZero() && w.Before(now); w = q.wake {
		q.sweep(w.Add(time.Nanosecond))
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

// referenceMerge is the per-entry merge of a decoded piggyback the
// gossiper used before it merged off the frame.
func (c *gossipCore) referenceMerge(pb Piggyback, now time.Time) {
	if c.muted {
		return
	}
	for i := range c.counters {
		if pb.Counters[i] > c.counters[i] {
			c.counters[i] = pb.Counters[i]
			sighted := !c.present[i]
			if sighted {
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
					if !est.Suspect(now) {
						c.suspected[i] = false
						c.record(i, false, CauseFresherCounter, now)
						c.arm(est.Deadline())
					}
				case c.wake.IsZero() || est.Suspect(c.wake):
					c.arm(est.Deadline())
				}
			}
		}
		if pb.Suspects[i] && c.present[i] && i+1 != c.cfg.Self && pb.Origin != i+1 {
			if !c.accused[i] || pb.Counters[i] > c.accusedAt[i] {
				c.accused[i] = true
				c.accusedAt[i] = pb.Counters[i]
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
	BadFrames                   uint64
}

// state copies out q's state and takes the transitions emitted since
// the last call.
func (q *quietCore) state() gossipState {
	s := gossipState{
		Counters:     append([]uint64(nil), q.counters...),
		AccusedAt:    append([]uint64(nil), q.accusedAt...),
		Accused:      append([]bool(nil), q.accused...),
		Present:      append([]bool(nil), q.present...),
		Suspected:    append([]bool(nil), q.suspected...),
		Wake:         q.wake,
		Transitions:  q.drain(),
		BadFrames:    q.badFrames,
		LastArrivals: make([]time.Time, len(q.ests)),
	}
	for i, est := range q.ests {
		if est != nil {
			s.LastArrivals[i] = est.LastArrival()
		}
	}
	return s
}

// TestRejectedFrameChangesNothing feeds every malformed frame, and every
// truncation of a valid one, by receive's path into a core that has
// heard from everyone: each must count as one bad frame and leave the
// state as it was and emit nothing.
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
		now := time.Now()
		g := newQuietCore(t, GossipConfig{Self: 1, N: n, Peers: []int{2}}, now)
		warm := Piggyback{Origin: 2, Counters: make([]uint64, n), Suspects: make([]bool, n)}
		for i := range warm.Counters {
			warm.Counters[i] = 3
		}
		warm.Suspects[n-1] = true
		g.take(warm, now)
		before := g.state()
		if before.Counters[1] != 3 || n > 2 && !before.Accused[n-1] || before.LastArrivals[1].IsZero() { // with n = 2 the only other node is the origin
			t.Fatalf("n=%d: the warm-up frame was not taken: %+v", n, before)
		}
		for k, body := range bad {
			_ = g.takeAt(body, now)
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

// diffCase drives a core through parseFrame and merge and its twin
// through the reference decoder and merge, on one made-up timeline.
type diffCase struct {
	t        *testing.T
	now      time.Time
	got, ref *quietCore
}

func newDiffCase(t *testing.T, cfg GossipConfig) *diffCase {
	now := time.Now()
	return &diffCase{t: t, now: now, got: newQuietCore(t, cfg, now), ref: newQuietCore(t, cfg, now)}
}

// take gives body to both at the current instant and compares them.
func (c *diffCase) take(body []byte) {
	c.t.Helper()
	errGot := c.got.takeAt(body, c.now)
	pb, errRef := referenceDecode(body, c.ref.cfg.N)
	if errRef == nil {
		c.ref.referenceMerge(pb, c.now)
	} else {
		c.ref.badFrames++
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
	c.got.fireUntil(c.now)
	c.ref.fireUntil(c.now)
	c.compare(fmt.Sprintf("advance %v", d))
}

// mute is SetMuted on the timeline.
func (c *diffCase) mute(muted bool) {
	c.t.Helper()
	c.got.setMuted(muted, c.now)
	c.ref.setMuted(muted, c.now)
	c.compare(fmt.Sprintf("muted=%v", muted))
}

func (c *diffCase) compare(step string) {
	c.t.Helper()
	if got, ref := c.got.state(), c.ref.state(); !reflect.DeepEqual(got, ref) {
		c.t.Fatalf("after %s the two paths differ:\nparsed    %+v\nreference %+v", step, got, ref)
	}
}

// randomFrame is what some node might gossip to q: counters around the
// ones q knows — some behind by 15 or more, escaped — and accusations of
// anyone, self, origin and absent joiners included.
func randomFrame(rng *rand.Rand, q *quietCore) []byte {
	n := q.cfg.N
	pb := Piggyback{Origin: 1 + rng.Intn(n), Counters: make([]uint64, n), Suspects: make([]bool, n)}
	for i := range pb.Counters {
		c := int64(q.counters[i]) + int64(rng.Intn(7)) - 3
		switch rng.Intn(8) {
		case 0:
			c -= 15 + rng.Int63n(300)
		case 1:
			c += 15 + rng.Int63n(300)
		}
		pb.Counters[i] = uint64(max(c, 0))
		pb.Suspects[i] = rng.Intn(4) == 0
	}
	data, err := pb.Encode()
	if err != nil {
		panic(err)
	}
	if rng.Intn(10) == 0 { // and now and then a byte off
		data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
	}
	return data
}

// diffEstimators are the three estimators at timeouts of minutes.
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
