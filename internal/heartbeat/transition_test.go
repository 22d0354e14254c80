package heartbeat

import (
	"math/rand"
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

// TestTransitionOnSilence: a silent peer produces exactly one suspect
// transition, stamped when its timeout expired — not at anybody's next
// poll, there is none — and carrying what it was judged on.
func TestTransitionOnSilence(t *testing.T) {
	const timeout = 80 * time.Millisecond
	g := handDriven(t, newSinkTransport(1), GossipConfig{N: 3, Peers: []int{2},
		NewEstimator: func() Estimator { return &FixedTimeout{Timeout: timeout} }})
	in := g.Transitions()

	before := time.Now()
	g.receive(envelope(t, frame(3, 2, map[int]uint64{2: 7})))
	after := time.Now()

	// Node 3 was never heard from: its grace runs from the epoch, which
	// is before `before`. Node 2's runs from the arrival. A late timer
	// may find both expired in one sweep, which records in node order.
	first, second := await(t, in, timeout+timerSlack), await(t, in, timeout+timerSlack)
	if first.Peer == 2 {
		first, second = second, first
	}
	if first.Peer != 3 || second.Peer != 2 {
		t.Fatalf("suspected %d and %d, want 3 and 2", first.Peer, second.Peer)
	}
	for _, tr := range []Transition{first, second} {
		if !tr.Suspected || tr.Cause != CauseOwnDeadline {
			t.Fatalf("silence produced %+v", tr)
		}
	}
	if !first.LastArrival.IsZero() || first.Counter != 0 {
		t.Fatalf("node 3 was never heard from, yet judged on %+v", first)
	}
	if second.Counter != 7 || second.LastArrival.Before(before) || second.LastArrival.After(after) {
		t.Fatalf("node 2 judged on counter %d arrived %v, want 7 within [%v, %v]", second.Counter, second.LastArrival, before, after)
	}
	if waited := second.At.Sub(second.LastArrival); waited <= timeout || waited > timeout+timerSlack {
		t.Fatalf("node 2 suspected %v after its last arrival, want within (%v, %v]", waited, timeout, timeout+timerSlack)
	}
	if first.At.Sub(before) > timeout+timerSlack {
		t.Fatalf("node 3 suspected %v after the start, want within %v", first.At.Sub(before), timeout+timerSlack)
	}

	time.Sleep(3 * timeout)
	if more := queued(in); len(more) != 0 {
		t.Fatalf("continued silence produced more transitions: %+v", more)
	}
	if v := g.Verdicts(time.Now()); !v[1] || !v[2] {
		t.Fatalf("verdicts %v, want both peers suspected", v)
	}
}

// TestTransitionTrustInMerge: the arrival that refutes a suspicion
// records the trust transition before merge returns. The round period
// is an hour, so nothing else could.
func TestTransitionTrustInMerge(t *testing.T) {
	const timeout = 40 * time.Millisecond
	g := handDriven(t, newSinkTransport(1), GossipConfig{N: 2, Peers: []int{2},
		NewEstimator: func() Estimator { return &FixedTimeout{Timeout: timeout} }})
	in := g.Transitions()
	if tr := await(t, in, timeout+timerSlack); tr.Peer != 2 || !tr.Suspected {
		t.Fatalf("first transition %+v, want node 2 suspected", tr)
	}

	now := time.Now()
	g.merge(frame(2, 2, map[int]uint64{2: 5}), now)
	got := queued(in)
	want := Transition{Peer: 2, Suspected: false, Cause: CauseFresherCounter, Counter: 5, LastArrival: now, At: now}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("merge of a fresher counter queued %+v, want exactly %+v", got, want)
	}
	// The same counter again is no news, and the deadline it set is live.
	g.merge(frame(2, 2, map[int]uint64{2: 5}), time.Now())
	if tr := await(t, in, timeout+timerSlack); !tr.Suspected || tr.LastArrival != now || tr.Counter != 5 {
		t.Fatalf("after the refutation, silence produced %+v", tr)
	}
}

// TestTransitionMutedResume: a muted gossiper is a stopped process —
// deadlines pass unrecorded, arrivals are discarded — and it looks at
// the clock the moment it is resumed.
func TestTransitionMutedResume(t *testing.T) {
	const timeout = 40 * time.Millisecond
	g := handDriven(t, newSinkTransport(1), GossipConfig{N: 4, Peers: []int{2},
		NewEstimator: func() Estimator { return &FixedTimeout{Timeout: timeout} }})
	in := g.Transitions()
	g.SetMuted(true)
	time.Sleep(3 * timeout)
	g.receive(envelope(t, frame(4, 2, map[int]uint64{2: 3, 3: 3, 4: 3})))
	if got := queued(in); len(got) != 0 {
		t.Fatalf("a muted gossiper recorded %+v", got)
	}
	for i, s := range g.suspected {
		if s {
			t.Fatalf("a muted gossiper holds node %d suspected", i+1)
		}
	}

	before := time.Now()
	g.SetMuted(false)
	got := queued(in) // queued inside SetMuted, not by a timer later
	if len(got) != 3 {
		t.Fatalf("resume queued %+v, want one suspect transition per peer", got)
	}
	for i, tr := range got {
		if tr.Peer != i+2 || !tr.Suspected || tr.Cause != CauseOwnDeadline || tr.At.Before(before) || !tr.LastArrival.IsZero() {
			t.Fatalf("resume transition %d is %+v", i, tr)
		}
	}
	// The timer is armed again: a refuted peer is suspected anew.
	g.receive(envelope(t, frame(4, 2, map[int]uint64{3: 9})))
	if tr := await(t, in, timerSlack); tr.Peer != 3 || tr.Suspected {
		t.Fatalf("after resume, a fresher counter produced %+v", tr)
	}
	if tr := await(t, in, timeout+timerSlack); tr.Peer != 3 || !tr.Suspected {
		t.Fatalf("after resume, silence produced %+v", tr)
	}
}

// TestTransitionFirstSighting: a deferred joiner's first counter is a
// transition of its own, and the joiner is watched from then on — by φ
// too, which has no interval to judge by after one arrival.
func TestTransitionFirstSighting(t *testing.T) {
	const timeout = 40 * time.Millisecond
	estimators := map[string]func() Estimator{
		"fixed": func() Estimator { return &FixedTimeout{Timeout: timeout} },
		"phi":   func() Estimator { return &PhiAccrual{Threshold: 8, FirstTimeout: timeout} },
	}
	for name, mk := range estimators {
		t.Run(name, func(t *testing.T) {
			g := handDriven(t, newSinkTransport(1), GossipConfig{N: 3, Peers: []int{2}, Deferred: []int{3},
				NewEstimator: func() Estimator { return &FixedTimeout{Timeout: time.Hour} }})
			in := g.Transitions()
			g.mu.Lock()
			g.cfg.NewEstimator = mk
			g.mu.Unlock()

			now := time.Now()
			g.merge(frame(3, 2, map[int]uint64{2: 4, 3: 1}), now)
			want := Transition{Peer: 3, Cause: CauseFirstSighting, Counter: 1, LastArrival: now, At: now}
			if got := queued(in); len(got) != 1 || got[0] != want {
				t.Fatalf("first sighting queued %+v, want exactly %+v", got, want)
			}
			if tr := await(t, in, timeout+timerSlack); tr.Peer != 3 || !tr.Suspected || tr.Cause != CauseOwnDeadline {
				t.Fatalf("the sighted joiner going silent produced %+v", tr)
			}
		})
	}
}

// TestTransitionQueueOverflowIsCounted: with no room left a transition
// is dropped and counted, and the gossiper does not block.
func TestTransitionQueueOverflowIsCounted(t *testing.T) {
	const n = 2
	g := handDriven(t, newSinkTransport(1), GossipConfig{N: n, Peers: []int{2}}) // timeout: an hour
	in := g.Transitions()
	// On a made-up timeline every sweep suspects and every merge refutes.
	now := time.Now()
	for c := uint64(1); c <= uint64(cap(in)); c++ {
		now = now.Add(2 * time.Hour)
		g.mu.Lock()
		g.sweepLocked(now)
		g.mu.Unlock()
		g.merge(frame(n, 2, map[int]uint64{2: c}), now.Add(time.Second))
	}
	if got, want := g.Stats().TransitionDrops, uint64(cap(in)); got != want {
		t.Fatalf("%d transitions into a queue of %d dropped %d, want %d", 2*cap(in), cap(in), got, want)
	}
	if got := len(queued(in)); got != cap(in) {
		t.Fatalf("the queue held %d, want it full at %d", got, cap(in))
	}
}

// referenceVerdicts is how the gossiper judged its peers before the
// tracked verdicts became the only ones: every estimator evaluated at now.
func referenceVerdicts(g *Gossiper, now time.Time) []bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]bool, len(g.ests))
	for i, est := range g.ests {
		out[i] = est != nil && est.Suspect(now)
	}
	return out
}

// TestTransitionVerdictsAgree drives a gossiper along a made-up
// timeline — arrivals for random peers at random instants, bursts
// included, the timer's firings emulated from the instants it was armed
// at — and checks at every step that the verdicts the transitions imply
// are the ones Verdicts returns, the ones the round's frame carries and
// the ones referenceVerdicts computes from the estimators: the armed
// instant is never later than a trusted peer's deadline, for adaptive
// estimators too. Timeouts are minutes so the real timer, armed by the
// real clock, stays out of it.
func TestTransitionVerdictsAgree(t *testing.T) {
	const n = 12
	estimators := map[string]func() Estimator{
		"fixed": func() Estimator { return &FixedTimeout{Timeout: 10 * time.Minute} },
		"chen":  func() Estimator { return &Chen{Window: 4, Alpha: 5 * time.Minute} },
		"phi": func() Estimator {
			return &PhiAccrual{Window: 6, Threshold: 8, MinStdDev: 30 * time.Second, FirstTimeout: 20 * time.Minute}
		},
	}
	for name, mk := range estimators {
		t.Run(name, func(t *testing.T) {
			sink := newSinkTransport(1)
			g := handDriven(t, sink, GossipConfig{N: n, Peers: []int{2}, Deferred: []int{n}, NewEstimator: mk})
			sink.mu.Lock()
			sink.keep = true
			sink.mu.Unlock()
			in := g.Transitions()
			rng := rand.New(rand.NewSource(7))
			implied := make([]bool, n)
			counters := make(map[int]uint64)
			now := time.Now()
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
				// What the timer would have done up to now.
				g.mu.Lock()
				for w := g.wake; !w.IsZero() && w.Before(now); w = g.wake {
					g.sweepLocked(w.Add(time.Nanosecond))
				}
				g.mu.Unlock()
				for k := rng.Intn(4); k > 0; k-- {
					id := 2 + rng.Intn(n-1)
					counters[id]++
				}
				g.merge(frame(n, 2, counters), now)

				for _, tr := range queued(in) {
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
				g.round()
				sink.mu.Lock()
				sent := sink.sent
				sink.sent = nil
				sink.mu.Unlock()
				if len(sent) != 1 {
					t.Fatalf("step %d: a round to one peer sent %d frames", step, len(sent))
				}
				pb, err := DecodePiggyback(sent[0].Body)
				if err != nil {
					t.Fatalf("step %d: the round's frame: %v", step, err)
				}
				sources := []struct {
					name     string
					verdicts []bool
				}{
					{"Verdicts", g.Verdicts(now)},
					{"the round's frame", pb.Suspects},
					{"the reference", referenceVerdicts(g, now)},
				}
				for _, src := range sources {
					for i, s := range src.verdicts {
						if s != implied[i] {
							t.Fatalf("step %d: node %d is suspected=%v by %s and %v by the transitions", step, i+1, s, src.name, implied[i])
						}
					}
				}
			}
			if flips < 100 {
				t.Fatalf("only %d verdict changes in %d transitions: the timeline exercises nothing", flips, seen)
			}
			if st := g.Stats(); st.TransitionDrops != 0 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}
