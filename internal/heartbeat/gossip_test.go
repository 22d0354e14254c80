package heartbeat

import (
	"math"
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
	g := handDriven(t, newSinkTransport(1), GossipConfig{N: n, Peers: chordPeers(1, n)})
	for i := 0; i < 50; i++ {
		g.round()
	}
	bound := 2 * int(math.Ceil(math.Log2(n)))
	if got := g.DistinctDestinations(); got > bound {
		t.Fatalf("distinct heartbeat destinations = %d over 50 rounds, want ≤ 2⌈log2 %d⌉ = %d", got, n, bound)
	}
	if got := g.DistinctDestinations(); got == 0 {
		t.Fatal("gossiper never sent a heartbeat")
	}
}

// TestGossipFanoutSubsetSampling pins the per-round fanout bound: with
// Fanout k, each round touches exactly k distinct peers.
func TestGossipFanoutSubsetSampling(t *testing.T) {
	const n, k = 64, 3
	tr := newSinkTransport(1)
	g := handDriven(t, tr, GossipConfig{N: n, Peers: chordPeers(1, n), Fanout: k, Seed: 11})
	before := int(g.Rounds()) // emitLoop's immediate first round
	for i := 0; i < 30; i++ {
		g.round()
	}
	rounds := int(g.Rounds())
	tr.mu.Lock()
	total := 0
	for _, c := range tr.dests {
		total += c
	}
	tr.mu.Unlock()
	if want := rounds * k; total != want {
		t.Fatalf("sent %d frames over %d rounds (%d pre-recorded), want exactly %d (fanout %d)",
			total, rounds, before, want, k)
	}
	if got := g.DistinctDestinations(); got > len(chordPeers(1, n)) {
		t.Fatalf("destinations %d exceed the overlay neighborhood %d", got, len(chordPeers(1, n)))
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
		g, err := NewGossiper(net.Node(model.ProcessID(p)), GossipConfig{
			Self:         p,
			N:            n,
			Peers:        chordPeers(p, n),
			Interval:     interval,
			Seed:         int64(p),
			NewEstimator: func() Estimator { return &FixedTimeout{Timeout: 12 * interval} },
		})
		if err != nil {
			t.Fatal(err)
		}
		gossipers[p] = g
	}
	defer func() {
		// Closing any gossiper closes the shared ChanNetwork; mute the
		// rest first so their emit loops stop cleanly, then close all.
		for p := 1; p <= n; p++ {
			gossipers[p].SetMuted(true)
		}
		for p := 1; p <= n; p++ {
			gossipers[p].Close()
		}
	}()

	waitFor := func(desc string, deadline time.Duration, cond func() bool) {
		t.Helper()
		limit := time.After(deadline)
		for {
			if cond() {
				return
			}
			select {
			case <-limit:
				t.Fatalf("timed out waiting for %s", desc)
			case <-time.After(interval):
			}
		}
	}

	// Dissemination: node 1's counter must reach the far side of the
	// ring (node 9 is not a chord neighbor of 1 only for larger n, but
	// every pair must converge regardless).
	waitFor("all counters to propagate everywhere", 5*time.Second, func() bool {
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
		if susp := gossipers[p].Suspects(); len(susp) != 0 {
			t.Fatalf("node %d suspects %v with no faults injected", p, susp)
		}
	}

	// Pause node 4: everyone must suspect it.
	const victim = 4
	gossipers[victim].SetMuted(true)
	waitFor("every live node to suspect the paused node", 5*time.Second, func() bool {
		for p := 1; p <= n; p++ {
			if p == victim {
				continue
			}
			if !gossipers[p].Verdicts(time.Now())[victim-1] {
				return false
			}
		}
		return true
	})

	// Resume it: suspicion must heal everywhere — nobody wrongly
	// suspects a paused-then-resumed node forever.
	gossipers[victim].SetMuted(false)
	waitFor("suspicion of the resumed node to heal", 5*time.Second, func() bool {
		for p := 1; p <= n; p++ {
			if p == victim {
				continue
			}
			if gossipers[p].Verdicts(time.Now())[victim-1] {
				return false
			}
		}
		return true
	})
}

// TestGossipAccusationExpiry drives merge directly: an accusation of q
// made at counter c holds while no fresher counter for q is known and
// expires the moment one propagates.
func TestGossipAccusationExpiry(t *testing.T) {
	const n = 8
	tr := newSinkTransport(1)
	g, err := NewGossiper(tr, GossipConfig{
		Self:         1,
		N:            n,
		Peers:        []int{2, 3},
		Interval:     time.Hour,
		NewEstimator: func() Estimator { return &FixedTimeout{Timeout: time.Hour} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	mk := func(origin int, counters []uint64, suspects []bool) Piggyback {
		return Piggyback{Origin: origin, Counters: counters, Suspects: suspects}
	}
	now := time.Now()

	// Node 2 accuses node 5 at counter 7.
	counters := make([]uint64, n)
	suspects := make([]bool, n)
	counters[4] = 7
	suspects[4] = true
	g.merge(mk(2, counters, suspects), now)
	found := false
	for _, q := range g.CommunitySuspects() {
		if q == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("fresh accusation of node 5 not reflected in community suspicion")
	}

	// Fresher news of node 5 (counter 8) expires the accusation.
	counters2 := make([]uint64, n)
	counters2[4] = 8
	g.merge(mk(3, counters2, make([]bool, n)), now)
	for _, q := range g.CommunitySuspects() {
		if q == 5 {
			t.Fatal("accusation of node 5 survived fresher counter news")
		}
	}

	// Self-accusations and origin-self claims are ignored.
	counters3 := make([]uint64, n)
	suspects3 := make([]bool, n)
	suspects3[0] = true // accusing node 1 (self)
	g.merge(mk(2, counters3, suspects3), now)
	for _, q := range g.CommunitySuspects() {
		if q == 1 {
			t.Fatal("gossiper accepted an accusation of itself")
		}
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
		peers := make([]int, 0, 4)
		for _, q := range chordPeers(p, n) {
			if q != joiner {
				peers = append(peers, q) // the joiner is not wired in yet
			}
		}
		g, err := NewGossiper(net.Node(model.ProcessID(p)), GossipConfig{
			Self:         p,
			N:            n,
			Peers:        peers,
			Interval:     interval,
			Seed:         int64(p),
			NewEstimator: func() Estimator { return &FixedTimeout{Timeout: 12 * interval} },
			Deferred:     []int{joiner},
		})
		if err != nil {
			t.Fatal(err)
		}
		gossipers[p] = g
	}
	defer func() {
		for p := 1; p <= n; p++ {
			if gossipers[p] != nil {
				gossipers[p].SetMuted(true)
			}
		}
		for p := 1; p <= n; p++ {
			if gossipers[p] != nil {
				gossipers[p].Close()
			}
		}
	}()

	waitFor := func(desc string, deadline time.Duration, cond func() bool) {
		t.Helper()
		limit := time.After(deadline)
		for {
			if cond() {
				return
			}
			select {
			case <-limit:
				t.Fatalf("timed out waiting for %s", desc)
			case <-time.After(interval):
			}
		}
	}

	// Let the initial group converge, then check the absent joiner is
	// neither suspected nor known.
	waitFor("initial group convergence", 5*time.Second, func() bool {
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
		for _, s := range gossipers[p].CommunitySuspects() {
			if s == joiner {
				t.Fatalf("node %d suspects the not-yet-joined node", p)
			}
		}
		if len(gossipers[p].Known()) != n-1 {
			t.Fatalf("node %d knows %v before the join", p, gossipers[p].Known())
		}
	}

	// Join: spawn the deferred node's gossiper and re-resolve the
	// overlay on both sides.
	g, err := NewGossiper(net.Node(model.ProcessID(joiner)), GossipConfig{
		Self:         joiner,
		N:            n,
		Peers:        chordPeers(joiner, n),
		Interval:     interval,
		Seed:         int64(joiner),
		NewEstimator: func() Estimator { return &FixedTimeout{Timeout: 12 * interval} },
	})
	if err != nil {
		t.Fatal(err)
	}
	gossipers[joiner] = g
	for _, q := range chordPeers(joiner, n) {
		gossipers[q].AddPeer(joiner)
	}

	// Convergence: within bounded gossip rounds the joiner's counters
	// reach everyone (and vice versa), and Known grows everywhere. 200
	// intervals is ≫ the overlay diameter.
	waitFor("joiner to appear in every counter vector", 200*interval, func() bool {
		for p := 1; p < joiner; p++ {
			if gossipers[p].Counter(joiner) == 0 {
				return false
			}
			if len(gossipers[p].Known()) != n {
				return false
			}
		}
		return true
	})
	waitFor("joiner to learn the whole group", 200*interval, func() bool {
		for q := 1; q < joiner; q++ {
			if gossipers[joiner].Counter(q) == 0 {
				return false
			}
		}
		return true
	})
	// Steady state: nobody suspects the joiner once admitted.
	waitFor("no suspicion of the joiner", 5*time.Second, func() bool {
		for p := 1; p < joiner; p++ {
			for _, s := range gossipers[p].CommunitySuspects() {
				if s == joiner {
					return false
				}
			}
		}
		return true
	})
}

// handDriven starts node 1's gossiper on a sink transport with a round
// period of an hour, so that its only round is the one NewGossiper
// emits at once; it returns when that round is over, and from then on
// the test alone drives round and receive.
func handDriven(t *testing.T, tr *sinkTransport, cfg GossipConfig) *Gossiper {
	t.Helper()
	cfg.Self, cfg.Interval = 1, time.Hour
	if cfg.NewEstimator == nil {
		cfg.NewEstimator = func() Estimator { return &FixedTimeout{Timeout: time.Hour} }
	}
	g, err := NewGossiper(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	firstRound := len(cfg.Peers)
	if cfg.Fanout > 0 && cfg.Fanout < firstRound {
		firstRound = cfg.Fanout
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		tr.mu.Lock()
		sends := 0
		for _, c := range tr.dests {
			sends += c
		}
		tr.mu.Unlock()
		if sends == firstRound {
			return g
		}
		if time.Now().After(deadline) {
			t.Fatal("the gossiper's first round never finished")
		}
	}
}

// TestGossipStatsCountSilentDrops provokes each of the gossiper's
// silent drops and watches its counter move.
func TestGossipStatsCountSilentDrops(t *testing.T) {
	const n = 8
	tr := newSinkTransport(1)
	tr.sendErr = transport.ErrClosed
	g := handDriven(t, tr, GossipConfig{N: n, Peers: []int{2, 3}})
	if st := g.Stats(); st != (GossipStats{SendErrors: 2}) {
		t.Fatalf("after one round of 2 refused sends: %+v", st)
	}

	encode := func(pb Piggyback) []byte {
		t.Helper()
		data, err := pb.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	good := Piggyback{Origin: 2, Counters: make([]uint64, n), Suspects: make([]bool, n)}
	good.Counters[1] = 41
	bad := [][]byte{
		nil,
		[]byte(`"AgIBCRAB"`), // what the JSON envelope used to carry
		append([]byte{1, n, 2}, make([]byte, n+1)...),                                        // version 1
		encode(Piggyback{Origin: 2, Counters: make([]uint64, 4), Suspects: make([]bool, 4)}), // another cluster's
		encode(good)[:10],
	}
	for _, body := range bad {
		tr.in <- transport.Envelope{From: 2, To: 1, Type: GossipEnvelopeType, Body: body}
	}
	tr.in <- transport.Envelope{From: 2, To: 1, Type: GossipEnvelopeType, Body: encode(good)}
	// Nobody reads Forward: its queue takes what it has room for.
	const extra = 5
	for i := 0; i < cap(g.forward)+extra; i++ {
		tr.in <- transport.Envelope{From: 2, To: 1, Type: "membership"}
	}
	want := GossipStats{BadFrames: uint64(len(bad)), ForwardDrops: extra, SendErrors: 2}
	for deadline := time.Now().Add(5 * time.Second); g.Stats() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v, want %+v", g.Stats(), want)
		}
	}
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
	g, err := NewGossiper(net.Node(2), GossipConfig{
		Self:         2,
		N:            4,
		Peers:        []int{1},
		Interval:     time.Hour, // one round at start, no gossip to wade through after
		NewEstimator: func() Estimator { return &FixedTimeout{Timeout: time.Hour} },
	})
	if err != nil {
		t.Fatal(err)
	}

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
	g := handDriven(t, tr, GossipConfig{N: n, Peers: []int{2, 3}})
	tr.mu.Lock()
	tr.keep = true
	tr.mu.Unlock()

	g.round() // the gossiper's second round: its counter reaches 2
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
		if pb.Origin != 1 || pb.Counters[0] != 2 {
			t.Fatalf("receiver %v reads origin %d counter %d from round 2's frame, want 1 and 2", env.To, pb.Origin, pb.Counters[0])
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

	g := handDriven(t, newSinkTransport(1), GossipConfig{N: n, Peers: peers15})
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
		g := handDriven(t, newSinkTransport(1), GossipConfig{N: n, Peers: peers})
		g.round()
		return testing.AllocsPerRun(runs, func() { g.round() })
	}
	one, fifteen := perRound(peers15[:1]), perRound(peers15)
	// The frame; a race-detector build adds one of its own.
	if one != fifteen || one > 2 {
		t.Errorf("a round allocates %.1f times to 1 peer and %.1f to 15, want the same and no more than 2", one, fifteen)
	}
}
