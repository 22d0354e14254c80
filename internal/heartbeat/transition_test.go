package heartbeat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"realisticfd/internal/transport"
)

// envelope wraps a piggyback the way it comes off the transport.
func envelope(t *testing.T, pb Piggyback) transport.Envelope {
	t.Helper()
	body, err := pb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return transport.Envelope{From: 2, To: 1, Type: GossipEnvelopeType, Body: body}
}

// frame builds the piggyback node `origin` would send with these
// counters (by node id) and no accusations.
func frame(n, origin int, counters map[int]uint64) Piggyback {
	pb := Piggyback{Origin: origin, Counters: make([]uint64, n), Suspects: make([]bool, n)}
	for id, c := range counters {
		pb.Counters[id-1] = c
	}
	return pb
}

// fixed is a factory of fixed-timeout estimators.
func fixed(timeout time.Duration) func() Estimator {
	return func() Estimator { return &FixedTimeout{Timeout: timeout} }
}

// epoch is the made-up instant the core tests start monitoring at.
var epoch = time.Unix(1_000_000, 0)

// TestTransitionOnSilence: a silent peer produces exactly one suspect
// transition, a nanosecond past its deadline — the instant the core
// wakes for, not anybody's next poll — carrying what it was judged on.
func TestTransitionOnSilence(t *testing.T) {
	const timeout = 80 * time.Millisecond
	q := newQuietCore(t, GossipConfig{N: 3, Peers: []int{2}, NewEstimator: fixed(timeout)}, epoch)
	heard := epoch.Add(10 * time.Millisecond)
	q.take(frame(3, 2, map[int]uint64{2: 7}), heard)
	// Node 3 was never heard from: its grace runs from the epoch. Node
	// 2's runs from the arrival.
	if want := epoch.Add(timeout); q.wake != want {
		t.Fatalf("wake %v, want node 3's deadline %v", q.wake, want)
	}
	q.fireUntil(heard.Add(time.Hour))
	want := []Transition{
		{Peer: 3, Suspected: true, Cause: CauseOwnDeadline, At: epoch.Add(timeout + time.Nanosecond)},
		{Peer: 2, Suspected: true, Cause: CauseOwnDeadline, Counter: 7, LastArrival: heard, At: heard.Add(timeout + time.Nanosecond)},
	}
	if got := q.drain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("silence emitted %+v, want %+v", got, want)
	}
	q.sweep(heard.Add(2 * time.Hour))
	if more := q.drain(); len(more) != 0 || !q.wake.IsZero() {
		t.Fatalf("continued silence emitted %+v and left wake at %v", more, q.wake)
	}
	if !q.suspected[1] || !q.suspected[2] {
		t.Fatalf("verdicts %v, want both peers suspected", q.suspected)
	}
}

// TestTransitionTrustInMerge: the arrival that refutes a suspicion emits
// the trust transition before merge returns, and wakes the core at the
// deadline it sets.
func TestTransitionTrustInMerge(t *testing.T) {
	const timeout = 40 * time.Millisecond
	q := newQuietCore(t, GossipConfig{N: 2, Peers: []int{2}, NewEstimator: fixed(timeout)}, epoch)
	q.fireUntil(epoch.Add(time.Second))
	if got := q.drain(); len(got) != 1 || got[0].Peer != 2 || !got[0].Suspected {
		t.Fatalf("first transitions %+v, want node 2 suspected", got)
	}

	now := epoch.Add(time.Second)
	q.take(frame(2, 2, map[int]uint64{2: 5}), now)
	want := Transition{Peer: 2, Suspected: false, Cause: CauseFresherCounter, Counter: 5, LastArrival: now, At: now}
	if got := q.drain(); len(got) != 1 || got[0] != want {
		t.Fatalf("merge of a fresher counter emitted %+v, want exactly %+v", got, want)
	}
	if q.wake != now.Add(timeout) {
		t.Fatalf("wake %v, want the new deadline %v", q.wake, now.Add(timeout))
	}
	// The same counter again is no news, and the deadline it set is live.
	q.take(frame(2, 2, map[int]uint64{2: 5}), now.Add(time.Millisecond))
	q.fireUntil(now.Add(time.Second))
	want = Transition{Peer: 2, Suspected: true, Cause: CauseOwnDeadline, Counter: 5, LastArrival: now, At: now.Add(timeout + time.Nanosecond)}
	if got := q.drain(); len(got) != 1 || got[0] != want {
		t.Fatalf("after the refutation, silence emitted %+v, want exactly %+v", got, want)
	}
}

// TestTransitionMutedResume: a muted core is a stopped process —
// deadlines pass unrecorded, arrivals are discarded — and it sweeps the
// moment it is resumed.
func TestTransitionMutedResume(t *testing.T) {
	const timeout = 40 * time.Millisecond
	q := newQuietCore(t, GossipConfig{N: 4, Peers: []int{2}, NewEstimator: fixed(timeout)}, epoch)
	q.setMuted(true, epoch)
	q.fireUntil(epoch.Add(time.Second))
	q.take(frame(4, 2, map[int]uint64{2: 3, 3: 3, 4: 3}), epoch.Add(time.Second))
	if got := q.drain(); len(got) != 0 || !q.wake.IsZero() || slices.Contains(q.suspected, true) {
		t.Fatalf("a muted core emitted %+v, holds %v and wakes at %v", got, q.suspected, q.wake)
	}

	resume := epoch.Add(2 * time.Second)
	q.setMuted(false, resume)
	var want []Transition
	for p := 2; p <= 4; p++ {
		want = append(want, Transition{Peer: p, Suspected: true, Cause: CauseOwnDeadline, At: resume})
	}
	if got := q.drain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume emitted %+v, want %+v", got, want)
	}
	// Awake again: a refuted peer is suspected anew at its deadline.
	back := resume.Add(10 * time.Millisecond)
	q.take(frame(4, 2, map[int]uint64{3: 9}), back)
	q.fireUntil(back.Add(time.Second))
	want = []Transition{
		{Peer: 3, Cause: CauseFresherCounter, Counter: 9, LastArrival: back, At: back},
		{Peer: 3, Suspected: true, Cause: CauseOwnDeadline, Counter: 9, LastArrival: back, At: back.Add(timeout + time.Nanosecond)},
	}
	if got := q.drain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after resume, an arrival and silence emitted %+v, want %+v", got, want)
	}
}

// TestTransitionFirstSighting: a deferred joiner's first counter is a
// transition of its own, and the joiner is watched from then on — by φ
// too, which has no interval to judge by after one arrival.
func TestTransitionFirstSighting(t *testing.T) {
	const timeout = 40 * time.Millisecond
	estimators := map[string]func() Estimator{
		"fixed": fixed(timeout),
		"phi":   func() Estimator { return &PhiAccrual{Threshold: 8, FirstTimeout: timeout} },
	}
	for name, mk := range estimators {
		t.Run(name, func(t *testing.T) {
			q := newQuietCore(t, GossipConfig{N: 3, Peers: []int{2}, Deferred: []int{3}}, epoch)
			q.cfg.NewEstimator = mk // the joiner's; node 2 keeps a timeout of an hour

			now := epoch.Add(10 * time.Millisecond)
			q.take(frame(3, 2, map[int]uint64{2: 4, 3: 1}), now)
			want := Transition{Peer: 3, Cause: CauseFirstSighting, Counter: 1, LastArrival: now, At: now}
			if got := q.drain(); len(got) != 1 || got[0] != want {
				t.Fatalf("first sighting emitted %+v, want exactly %+v", got, want)
			}
			q.fireUntil(now.Add(time.Second))
			want = Transition{Peer: 3, Suspected: true, Cause: CauseOwnDeadline, Counter: 1, LastArrival: now, At: now.Add(timeout + time.Nanosecond)}
			if got := q.drain(); len(got) != 1 || got[0] != want {
				t.Fatalf("the sighted joiner going silent emitted %+v, want exactly %+v", got, want)
			}
		})
	}
}

// referenceVerdicts is how the gossiper judged its peers before the
// tracked verdicts became the only ones: every estimator evaluated at now.
func referenceVerdicts(c *gossipCore, now time.Time) []bool {
	out := make([]bool, len(c.ests))
	for i, est := range c.ests {
		out[i] = est != nil && est.Suspect(now)
	}
	return out
}

// TestTransitionVerdictsAgree drives a core along a made-up timeline —
// arrivals for random peers at random instants, bursts included, a
// sweep a nanosecond after each wake — and checks at every step that
// the verdicts the transitions imply are the tracked ones Verdicts
// copies, the ones the round's frame carries and the ones
// referenceVerdicts computes from the estimators: wake is never later
// than a trusted peer's deadline, for adaptive estimators too.
func TestTransitionVerdictsAgree(t *testing.T) {
	const n = 12
	estimators := map[string]func() Estimator{
		"fixed": fixed(10 * time.Minute),
		"chen":  func() Estimator { return &Chen{Window: 4, Alpha: 5 * time.Minute} },
		"phi": func() Estimator {
			return &PhiAccrual{Window: 6, Threshold: 8, MinStdDev: 30 * time.Second, FirstTimeout: 20 * time.Minute}
		},
	}
	for name, mk := range estimators {
		t.Run(name, func(t *testing.T) {
			q := newQuietCore(t, GossipConfig{N: n, Peers: []int{2}, Deferred: []int{n}, NewEstimator: mk}, epoch)
			rng := rand.New(rand.NewSource(7))
			implied := make([]bool, n)
			counters := make(map[int]uint64)
			now := epoch
			seen, flips := 0, 0
			for step := 0; step < 4000; step++ {
				switch rng.Intn(10) {
				case 0: // a long silence: deadlines pass
					now = now.Add(time.Duration(rng.Intn(15)) * time.Minute)
				case 1: // a burst: the next arrival is a nanosecond later
					now = now.Add(time.Nanosecond)
				default:
					now = now.Add(time.Duration(rng.Intn(90)) * time.Second)
				}
				q.fireUntil(now)
				for k := rng.Intn(4); k > 0; k-- {
					id := 2 + rng.Intn(n-1)
					counters[id]++
				}
				q.take(frame(n, 2, counters), now)

				for _, tr := range q.drain() {
					seen++
					if tr.Cause == CauseFirstSighting {
						continue
					}
					if implied[tr.Peer-1] == tr.Suspected {
						t.Fatalf("step %d: transition %+v changes nothing", step, tr)
					}
					implied[tr.Peer-1] = tr.Suspected
					flips++
				}
				body, dests := q.roundFrame()
				if len(dests) != 1 {
					t.Fatalf("step %d: a round to one peer went to %v", step, dests)
				}
				pb, err := DecodePiggyback(body)
				if err != nil {
					t.Fatalf("step %d: the round's frame: %v", step, err)
				}
				ref := referenceVerdicts(q.gossipCore, now)
				for i, s := range implied {
					if q.suspected[i] != s || pb.Suspects[i] != s || ref[i] != s {
						t.Fatalf("step %d: node %d is suspected=%v by the transitions, %v tracked, %v in the round's frame and %v by the reference",
							step, i+1, s, q.suspected[i], pb.Suspects[i], ref[i])
					}
				}
			}
			if flips < 100 {
				t.Fatalf("only %d verdict changes in %d transitions: the timeline exercises nothing", flips, seen)
			}
		})
	}
}

// The driver-level tests below run the live Gossiper on the real clock:
// its timer, its transition queue and Close.

// queued takes what the transition queue holds right now.
func queued(in <-chan Transition) []Transition {
	var out []Transition
	for {
		select {
		case tr := <-in:
			out = append(out, tr)
		default:
			return out
		}
	}
}

// await takes the next transition, failing the test after limit.
func await(t *testing.T, in <-chan Transition, limit time.Duration) Transition {
	t.Helper()
	select {
	case tr := <-in:
		return tr
	case <-time.After(limit):
		t.Fatalf("no transition within %v", limit)
		return Transition{}
	}
}

// timerSlack is how late a deadline may be noticed on a loaded box
// under the race detector; the gossiper itself adds microseconds.
const timerSlack = 250 * time.Millisecond

// startGossiper starts node 1's gossiper over a sink with quietConfig's
// defaults, closed when the test ends.
func startGossiper(t testing.TB, tr transport.Transport, cfg GossipConfig) *Gossiper {
	t.Helper()
	g, err := NewGossiper(tr, quietConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestTransitionResumeSweepsAtOnce: SetMuted(false) looks at the clock
// and queues what it finds before it returns, and the live timer, armed
// again, queues the next expiry when it happens.
func TestTransitionResumeSweepsAtOnce(t *testing.T) {
	const timeout = 40 * time.Millisecond
	g := startGossiper(t, newSinkTransport(1), GossipConfig{N: 4, Peers: []int{2}, NewEstimator: fixed(timeout)})
	in := g.Transitions()
	g.SetMuted(true)
	time.Sleep(3 * timeout)
	g.receive(envelope(t, frame(4, 2, map[int]uint64{2: 3, 3: 3, 4: 3})))
	if got := queued(in); len(got) != 0 || slices.Contains(g.Verdicts(time.Now()), true) {
		t.Fatalf("a muted gossiper queued %+v", got)
	}

	before := time.Now()
	g.SetMuted(false)
	got := queued(in) // queued inside SetMuted, not by a timer later
	if len(got) != 3 {
		t.Fatalf("resume queued %+v, want one suspect transition per peer", got)
	}
	for i, tr := range got {
		if tr.Peer != i+2 || !tr.Suspected || tr.At.Before(before) {
			t.Fatalf("resume transition %d is %+v", i, tr)
		}
	}
	g.receive(envelope(t, frame(4, 2, map[int]uint64{3: 9})))
	if tr := await(t, in, timerSlack); tr.Peer != 3 || tr.Suspected {
		t.Fatalf("after resume, a fresher counter produced %+v", tr)
	}
	tr := await(t, in, timeout+timerSlack)
	if waited := tr.At.Sub(tr.LastArrival); tr.Peer != 3 || !tr.Suspected || waited <= timeout || waited > timeout+timerSlack {
		t.Fatalf("after resume, silence queued %+v, %v after the arrival, want node 3 within (%v, %v]", tr, waited, timeout, timeout+timerSlack)
	}
}

// TestTransitionQueueOverflowIsCounted: the driver's emit hook queues
// nothing before Transitions is first called; after that a transition
// with no room left is dropped and counted, and emit does not block.
// With a timeout of an hour nothing but the test emits.
func TestTransitionQueueOverflowIsCounted(t *testing.T) {
	g := startGossiper(t, newSinkTransport(1), GossipConfig{N: 2, Peers: []int{2}})
	g.emit(Transition{Peer: 2, Suspected: true})
	in := g.Transitions()
	for c := 0; c < 2*cap(in); c++ {
		g.emit(Transition{Peer: 2, Suspected: c%2 == 0, Counter: uint64(c)})
	}
	if got, want := g.Stats().TransitionDrops, uint64(cap(in)); got != want {
		t.Fatalf("%d transitions into a queue of %d dropped %d, want %d", 2*cap(in), cap(in), got, want)
	}
	got := queued(in)
	if len(got) != cap(in) || got[0].Counter != 0 || got[len(got)-1].Counter != uint64(cap(in)-1) {
		t.Fatalf("the queue held %+v, want the first %d in order", got, cap(in))
	}
}

// lastWord is a sink whose Close delivers one more envelope before it
// closes the receive channel.
type lastWord struct {
	*sinkTransport
	env transport.Envelope
}

func (l lastWord) Close() error {
	l.in <- l.env
	return l.sinkTransport.Close()
}

// TestCloseLeavesNoTimerArmed: a frame the receive loop drains while
// Close runs may arm the timer — here one that refutes a suspicion while
// nothing else is armed — so no timer may be left armed once Close
// returns.
func TestCloseLeavesNoTimerArmed(t *testing.T) {
	const timeout = 50 * time.Millisecond
	g, err := NewGossiper(lastWord{newSinkTransport(1), envelope(t, frame(2, 2, map[int]uint64{2: 1}))},
		quietConfig(GossipConfig{N: 2, Peers: []int{2}, NewEstimator: fixed(timeout)}))
	if err != nil {
		t.Fatal(err)
	}
	in := g.Transitions()
	if tr := await(t, in, timeout+timerSlack); tr.Peer != 2 || !tr.Suspected {
		t.Fatalf("silence queued %+v, want node 2 suspected", tr)
	}
	g.Close()
	if got := queued(in); len(got) != 1 || got[0].Suspected {
		t.Fatalf("the frame Close delivered queued %+v, want node 2 trusted", got)
	}
	if g.timer.Stop() {
		t.Fatal("the deadline timer is still armed after Close")
	}
}
