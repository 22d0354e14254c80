package heartbeat

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"realisticfd/internal/model"
	"realisticfd/internal/transport"
)

// sinkTransport records gossip destinations without any network.
type sinkTransport struct {
	self    model.ProcessID
	in      chan transport.Envelope
	sendErr error // what Send returns; set before the gossiper starts

	mu    sync.Mutex
	dests map[model.ProcessID]int
	keep  bool // whether Send also appends to sent
	sent  []transport.Envelope
}

func newSinkTransport(self model.ProcessID) *sinkTransport {
	return &sinkTransport{self: self, in: make(chan transport.Envelope, 16), dests: map[model.ProcessID]int{}}
}

func (s *sinkTransport) Self() model.ProcessID { return s.self }
func (s *sinkTransport) Send(env transport.Envelope) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dests[env.To]++
	if s.keep {
		s.sent = append(s.sent, env)
	}
	return s.sendErr
}
func (s *sinkTransport) Recv() <-chan transport.Envelope { return s.in }
func (s *sinkTransport) Close() error                    { close(s.in); return nil }

// sends counts the envelopes Send has taken.
func (s *sinkTransport) sends() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, c := range s.dests {
		total += c
	}
	return total
}

// chordPeers mirrors the scenario package's chord overlay: node self
// links to self±2^j (mod n), giving O(log n) degree.
func chordPeers(self, n int) []int {
	set := map[int]bool{}
	for step := 1; step < n; step *= 2 {
		set[(self-1+step)%n+1] = true
		set[((self-1-step)%n+n)%n+1] = true
	}
	delete(set, self)
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	return out
}

// TestGossipFanoutIsLogN is the acceptance check for the dissemination
// redesign: over the whole run, a node's set of distinct heartbeat
// destinations must stay O(log n) — not the O(n) of the all-to-all
// emitter the exemplar choked on.
func TestGossipFanoutIsLogN(t *testing.T) {
	const n = 200
	q := newQuietCore(t, GossipConfig{N: n, Peers: chordPeers(1, n)}, epoch)
	for i := 0; i < 50; i++ {
		q.roundFrame()
	}
	bound := 2 * int(math.Ceil(math.Log2(n)))
	if got := q.sentCount; got > bound {
		t.Fatalf("distinct heartbeat destinations = %d over 50 rounds, want ≤ 2⌈log2 %d⌉ = %d", got, n, bound)
	}
	if q.sentCount == 0 {
		t.Fatal("gossiper never sent a heartbeat")
	}
}

// TestGossipFanoutSubsetSampling pins the per-round fanout bound: with
// Fanout k, each round touches exactly k distinct overlay peers.
func TestGossipFanoutSubsetSampling(t *testing.T) {
	const n, k = 64, 3
	peers := chordPeers(1, n)
	q := newQuietCore(t, GossipConfig{N: n, Peers: peers, Fanout: k, Seed: 11}, epoch)
	for i := 0; i < 30; i++ {
		_, dests := q.roundFrame()
		round := slices.Compact(slices.Sorted(slices.Values(dests)))
		if len(dests) != k || len(round) != k {
			t.Fatalf("round %d went to %v, want %d distinct peers", i, dests, k)
		}
		for _, d := range round {
			if !slices.Contains(peers, d) {
				t.Fatalf("round %d went to %d, outside the overlay %v", i, d, peers)
			}
		}
	}
}

// meshNode starts node p's gossiper on net, an n-node in-process
// network: it beats to peers every interval and suspects a peer after
// timeout of silence. It is closed when the test ends; closing any
// node's gossiper closes the shared network.
func meshNode(t *testing.T, net *transport.ChanNetwork, n, p int, peers []int, interval, timeout time.Duration, deferred ...int) *Gossiper {
	t.Helper()
	g, err := NewGossiper(net.Node(model.ProcessID(p)), GossipConfig{Self: p, N: n, Peers: peers, Interval: interval,
		Seed: int64(p), NewEstimator: fixed(timeout), Deferred: deferred})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// waitFor fails the test if cond does not hold within limit.
func waitFor(t *testing.T, desc string, limit time.Duration, cond func() bool) {
	t.Helper()
	if !waitUntil(limit, cond) {
		t.Fatalf("timed out waiting for %s", desc)
	}
}

// TestGossipDisseminationAndHealing runs 16 real gossipers over the
// in-process network: counters must propagate across the O(log n)
// overlay to every node, a muted (SIGSTOP-emulated) node must become
// suspected everywhere, and resuming it must clear the suspicion —
// the no-node-wrongly-suspected-forever property the live smoke test
// asserts on real processes.
func TestGossipDisseminationAndHealing(t *testing.T) {
	const n = 16
	const interval = 10 * time.Millisecond
	net, err := transport.NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	gossipers := make([]*Gossiper, n+1)
	for p := 1; p <= n; p++ {
		gossipers[p] = meshNode(t, net, n, p, chordPeers(p, n), interval, 12*interval)
	}

	// Dissemination: every node's counter must reach every other node.
	waitFor(t, "all counters to propagate everywhere", 5*time.Second, func() bool {
		for p := 1; p <= n; p++ {
			for q := 1; q <= n; q++ {
				if p != q && gossipers[p].Counter(q) == 0 {
					return false
				}
			}
		}
		return true
	})

	// No false suspicion in the steady state.
	for p := 1; p <= n; p++ {
		if v := gossipers[p].Verdicts(time.Now()); slices.Contains(v, true) {
			t.Fatalf("node %d suspects %v with no faults injected", p, v)
		}
	}

	// Pause node 4: everyone must suspect it. Resume it: suspicion must
	// heal everywhere — nobody wrongly suspects a paused-then-resumed
	// node forever.
	const victim = 4
	for _, muted := range []bool{true, false} {
		gossipers[victim].SetMuted(muted)
		waitFor(t, fmt.Sprintf("every live node to hold the paused node suspected=%v", muted), 5*time.Second, func() bool {
			for p := 1; p <= n; p++ {
				if p != victim && gossipers[p].Verdicts(time.Now())[victim-1] != muted {
					return false
				}
			}
			return true
		})
	}
}

// TestGossipAccusationExpiry drives receive directly: an accusation of q
// made at counter c holds while no fresher counter for q is known and
// expires the moment one propagates.
func TestGossipAccusationExpiry(t *testing.T) {
	const n = 8
	g := startGossiper(t, newSinkTransport(1), GossipConfig{N: n, Peers: []int{2, 3}})

	// Node 2 accuses node 5 at counter 7.
	accusation := frame(n, 2, map[int]uint64{5: 7})
	accusation.Suspects[4] = true
	g.receive(envelope(t, accusation))
	if !slices.Contains(g.CommunitySuspects(), 5) {
		t.Fatal("fresh accusation of node 5 not reflected in community suspicion")
	}
	// Fresher news of node 5 (counter 8) expires the accusation.
	g.receive(envelope(t, frame(n, 3, map[int]uint64{5: 8})))
	if slices.Contains(g.CommunitySuspects(), 5) {
		t.Fatal("accusation of node 5 survived fresher counter news")
	}
	// Self-accusations are ignored.
	self := frame(n, 2, nil)
	self.Suspects[0] = true
	g.receive(envelope(t, self))
	if slices.Contains(g.CommunitySuspects(), 1) {
		t.Fatal("gossiper accepted an accusation of itself")
	}
}

// TestGossipMidRunJoin pins the churn axis at the gossip layer: a
// deferred node is never suspected while absent, its neighbors learn of
// it within bounded rounds of its first heartbeat (counter bootstrap +
// AddPeer overlay re-resolution), and it converges into every node's
// Known view.
func TestGossipMidRunJoin(t *testing.T) {
	const n = 8
	const joiner = 8
	const interval = 10 * time.Millisecond
	net, err := transport.NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	gossipers := make([]*Gossiper, n+1)
	for p := 1; p < joiner; p++ {
		// The joiner is not wired in yet.
		peers := slices.DeleteFunc(chordPeers(p, n), func(q int) bool { return q == joiner })
		gossipers[p] = meshNode(t, net, n, p, peers, interval, 12*interval, joiner)
	}

	// Let the initial group converge, then check the absent joiner is
	// neither suspected nor known.
	waitFor(t, "initial group convergence", 5*time.Second, func() bool {
		for p := 1; p < joiner; p++ {
			for q := 1; q < joiner; q++ {
				if p != q && gossipers[p].Counter(q) == 0 {
					return false
				}
			}
		}
		return true
	})
	for p := 1; p < joiner; p++ {
		if slices.Contains(gossipers[p].CommunitySuspects(), joiner) {
			t.Fatalf("node %d suspects the not-yet-joined node", p)
		}
		if len(gossipers[p].Known()) != n-1 {
			t.Fatalf("node %d knows %v before the join", p, gossipers[p].Known())
		}
	}

	// Join: spawn the deferred node's gossiper and re-resolve the
	// overlay on both sides.
	gossipers[joiner] = meshNode(t, net, n, joiner, chordPeers(joiner, n), interval, 12*interval)
	for _, q := range chordPeers(joiner, n) {
		gossipers[q].AddPeer(joiner)
	}

	// Convergence: within bounded gossip rounds the joiner's counters
	// reach everyone (and vice versa), and Known grows everywhere. 200
	// intervals is ≫ the overlay diameter.
	waitFor(t, "joiner to appear in every counter vector", 200*interval, func() bool {
		for p := 1; p < joiner; p++ {
			if gossipers[p].Counter(joiner) == 0 || len(gossipers[p].Known()) != n {
				return false
			}
		}
		return true
	})
	waitFor(t, "joiner to learn the whole group", 200*interval, func() bool {
		for q := 1; q < joiner; q++ {
			if gossipers[joiner].Counter(q) == 0 {
				return false
			}
		}
		return true
	})
	// Steady state: nobody suspects the joiner once admitted.
	waitFor(t, "no suspicion of the joiner", 5*time.Second, func() bool {
		for p := 1; p < joiner; p++ {
			if slices.Contains(gossipers[p].CommunitySuspects(), joiner) {
				return false
			}
		}
		return true
	})
}

// TestGossipStatsCountSilentDrops provokes each of the gossiper's
// silent drops and watches its counter move.
func TestGossipStatsCountSilentDrops(t *testing.T) {
	const n = 8
	tr := newSinkTransport(1)
	tr.sendErr = transport.ErrClosed
	g := startGossiper(t, tr, GossipConfig{N: n, Peers: []int{2, 3}}) // one round, of 2 refused sends

	good := envelope(t, frame(n, 2, map[int]uint64{2: 41}))
	bad := [][]byte{
		nil,
		[]byte(`"AgIBCRAB"`), // what the JSON envelope used to carry
		append([]byte{1, n, 2}, make([]byte, n+1)...), // version 1
		envelope(t, frame(4, 2, nil)).Body,            // another cluster's
		good.Body[:10],
	}
	for _, body := range bad {
		tr.in <- transport.Envelope{From: 2, To: 1, Type: GossipEnvelopeType, Body: body}
	}
	tr.in <- good
	// Nobody reads Forward: its queue takes what it has room for.
	const extra = 5
	for i := 0; i < cap(g.forward)+extra; i++ {
		tr.in <- transport.Envelope{From: 2, To: 1, Type: "membership"}
	}
	want := GossipStats{BadFrames: uint64(len(bad)), ForwardDrops: extra, SendErrors: 2}
	waitFor(t, fmt.Sprintf("stats %+v", want), 5*time.Second, func() bool { return g.Stats() == want })
	if got := g.Counter(2); got != 41 {
		t.Fatalf("the good frame behind the bad ones left node 2's counter at %d, want 41", got)
	}
}

// TestGossipForwardsForeignTraffic pins the contract a reader of
// Forward relies on: a non-gossip envelope comes out of Forward with
// From, Type and Body intact, and Forward closes once the gossiper is
// closed.
func TestGossipForwardsForeignTraffic(t *testing.T) {
	t.Parallel()
	net, err := transport.NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	// One round at start, no gossip to wade through after.
	g := startGossiper(t, net.Node(2), GossipConfig{Self: 2, N: 4, Peers: []int{1}})

	body := []byte("view#3")
	if err := net.Node(1).Send(transport.Envelope{To: 2, Type: "membership", Body: body}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-g.Forward():
		if got.From != 1 || got.To != 2 || got.Type != "membership" || string(got.Body) != string(body) {
			t.Fatalf("forwarded %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("foreign envelope not forwarded")
	}
	g.Close() // closes the network through node 2
	select {
	case env, ok := <-g.Forward():
		if ok {
			t.Fatalf("Forward yielded %+v after Close", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Forward still open after Close")
	}
}

// TestGossipRoundSharesOneBody pins the round's wire contract: one
// encoded frame per round, the same slice in every destination's
// envelope, and — because receivers may still hold it — never written
// again, so it decodes to its own round's state after later rounds.
func TestGossipRoundSharesOneBody(t *testing.T) {
	const n = 8
	tr := newSinkTransport(1)
	tr.keep = true
	g := startGossiper(t, tr, GossipConfig{N: n, Peers: []int{2, 3}})
	waitFor(t, "the first round", 5*time.Second, func() bool { return tr.sends() == 2 })
	tr.mu.Lock()
	first := append([]transport.Envelope(nil), tr.sent...)
	tr.mu.Unlock()
	if len(first) != 2 || first[0].To == first[1].To {
		t.Fatalf("one round to 2 peers sent %+v", first)
	}
	if &first[0].Body[0] != &first[1].Body[0] || len(first[0].Body) != len(first[1].Body) {
		t.Fatal("the two destinations of one round got different body slices")
	}
	for i := 0; i < 3; i++ {
		g.round()
	}
	for _, env := range first {
		pb, err := DecodePiggyback(env.Body)
		if err != nil {
			t.Fatalf("receiver %v cannot decode its frame after the sender's later rounds: %v", env.To, err)
		}
		if pb.Origin != 1 || pb.Counters[0] != 1 {
			t.Fatalf("receiver %v reads origin %d counter %d from round 1's frame, want 1 and 1", env.To, pb.Origin, pb.Counters[0])
		}
	}
}

// TestGossipAllocBudgets pins the two per-frame costs the live ledger
// is spent on: taking a frame in allocates nothing, and emitting a
// round allocates the same whether it goes to 1 peer or to 15.
func TestGossipAllocBudgets(t *testing.T) {
	const n, runs = 256, 100
	peers15 := make([]int, 15)
	for i := range peers15 {
		peers15[i] = i + 2
	}

	// Each gossiper's only loop-driven round is its first, awaited before
	// anything is counted; from then on the test alone drives it.
	start := func(peers []int) *Gossiper {
		tr := newSinkTransport(1)
		g := startGossiper(t, tr, GossipConfig{N: n, Peers: peers})
		waitFor(t, "the first round", 5*time.Second, func() bool { return tr.sends() == len(peers) })
		return g
	}
	g := start(peers15)
	// Every frame raises every counter, so each merge feeds all 255
	// estimators: the expensive receive, not the no-news one.
	frames := make([]transport.Envelope, runs+2) // AllocsPerRun warms up with one call more
	for i := range frames {
		pb := steadyFrame(n, uint64(100+i))
		pb.Origin = 2
		body, err := pb.Encode()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = transport.Envelope{From: 2, To: 1, Type: GossipEnvelopeType, Body: body}
	}
	next := 0
	g.receive(frames[next]) // sizes the scratch piggyback
	next++
	if allocs := testing.AllocsPerRun(runs, func() {
		g.receive(frames[next])
		next++
	}); allocs != 0 {
		t.Errorf("receiving an n=%d frame allocates %.1f times, want 0", n, allocs)
	}
	if got, want := g.Counter(n), uint64(100+next-1)-uint64((n-1)%9); got != want {
		t.Fatalf("after %d frames node %d's counter is %d, want %d: the frames were not merged", next, n, got, want)
	}
	if st := g.Stats(); st != (GossipStats{}) {
		t.Fatalf("the frames were dropped, not merged: %+v", st)
	}

	perRound := func(peers []int) float64 {
		g := start(peers)
		g.round()
		return testing.AllocsPerRun(runs, func() { g.round() })
	}
	one, fifteen := perRound(peers15[:1]), perRound(peers15)
	// The frame; a race-detector build adds one of its own.
	if one != fifteen || one > 2 {
		t.Errorf("a round allocates %.1f times to 1 peer and %.1f to 15, want the same and no more than 2", one, fifteen)
	}
}
