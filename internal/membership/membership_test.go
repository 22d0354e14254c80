package membership

import (
	"slices"
	"sync"
	"testing"
	"time"

	"realisticfd/internal/heartbeat"
	"realisticfd/internal/model"
	"realisticfd/internal/transport"
)

// member is one node of a test group: a gossiper over the in-process
// network and the feed its suspicions drive, the way a cluster node
// follows its gossiper's transition log.
type member struct {
	g    *heartbeat.Gossiper
	feed *Feed
}

// startGroup starts n members that gossip to every other node and time
// peers out after timeout. Cleanup stops them and closes the network.
func startGroup(t *testing.T, net *transport.ChanNetwork, n int, timeout time.Duration) []*member {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	members := make([]*member, n+1)
	for p := 1; p <= n; p++ {
		var peers []int
		for q := 1; q <= n; q++ {
			if q != p {
				peers = append(peers, q)
			}
		}
		g, err := heartbeat.NewGossiper(net.Node(model.ProcessID(p)), heartbeat.GossipConfig{
			Self:         p,
			N:            n,
			Peers:        peers,
			Interval:     5 * time.Millisecond,
			NewEstimator: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: timeout} },
		})
		if err != nil {
			t.Fatal(err)
		}
		feed, err := NewFeed(model.ProcessID(p), n)
		if err != nil {
			t.Fatal(err)
		}
		members[p] = &member{g: g, feed: feed}
		wg.Add(1)
		go func() {
			defer wg.Done()
			read := 0 // the log entries put to the feed so far
			for {
				select {
				case <-g.Changed():
					_, tail := g.Transitions(read)
					for _, tr := range tail {
						if tr.Suspected {
							feed.Update(g.CommunitySuspects())
						}
					}
					read += len(tail)
				case <-stop:
					return
				}
			}
		}()
	}
	t.Cleanup(func() {
		close(stop)
		wg.Wait()
		for _, m := range members[1:] {
			m.g.Close()
		}
	})
	return members
}

// eventually polls cond every 5ms up to limit.
func eventually(limit time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(limit); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestClusterExcludesCrashedNode is the end-to-end E9 scenario:
// gossip heartbeats over an in-process network, a node silenced,
// membership converging on its exclusion, output(P) complete and
// accurate-by-exclusion at every survivor.
func TestClusterExcludesCrashedNode(t *testing.T) {
	t.Parallel()
	const n = 5
	net, err := transport.NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	members := startGroup(t, net, n, 100*time.Millisecond)

	// Warm up, then silence node 4 (transport isolation ≈ crash).
	time.Sleep(150 * time.Millisecond)
	for p := 1; p <= n; p++ {
		if ex := members[p].feed.Excluded(); len(ex) != 0 {
			t.Fatalf("p%d excluded %v during healthy warmup", p, ex)
		}
	}
	net.Isolate(4)

	survivors := []int{1, 2, 3, 5}
	excludedFour := func() bool {
		for _, p := range survivors {
			if !slices.Equal(members[p].feed.Excluded(), []int{4}) {
				return false
			}
		}
		return true
	}
	if !eventually(5*time.Second, excludedFour) {
		for _, p := range survivors {
			t.Errorf("p%d: output(P) = %v, want [4]", p, members[p].feed.Excluded())
		}
		t.FailNow()
	}
	for _, p := range survivors {
		// View history is monotone: IDs strictly increase, members shrink.
		hist := members[p].feed.History()
		for i := 1; i < len(hist); i++ {
			if hist[i].ID <= hist[i-1].ID || len(hist[i].Members) >= len(hist[i-1].Members) {
				t.Errorf("p%d: non-monotone history %v", p, hist)
			}
		}
	}

	// Survivors agree on the final view.
	ref := members[1].feed.View()
	for _, p := range survivors[1:] {
		if v := members[p].feed.View(); v.ID != ref.ID || !slices.Equal(v.Members, ref.Members) {
			t.Errorf("view disagreement: p%d has %v, p1 has %v", p, v, ref)
		}
	}
}

// TestFalseSuspicionMadeAccurateByExclusion shows the paper's §1.3
// observation end to end: a *live* node is falsely suspected (its
// links are cut, it keeps running), membership excludes it, and the
// exclusion outlives the suspicion — output(P) is monotone.
func TestFalseSuspicionMadeAccurateByExclusion(t *testing.T) {
	t.Parallel()
	const n = 4
	net, err := transport.NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	members := startGroup(t, net, n, 100*time.Millisecond)

	time.Sleep(150 * time.Millisecond)
	net.Isolate(2) // p2 is alive but looks dead
	if !eventually(5*time.Second, func() bool { return slices.Contains(members[1].feed.Excluded(), 2) }) {
		t.Fatal("false suspect never excluded")
	}

	// Heal the partition: p1's detector trusts p2 again, its membership
	// does not.
	for q := model.ProcessID(1); q <= n; q++ {
		if q != 2 {
			net.Heal(2, q)
		}
	}
	if !eventually(5*time.Second, func() bool { return !members[1].g.Verdicts(time.Now())[1] }) {
		t.Fatal("p1's detector never trusted p2 again after the heal")
	}
	if !slices.Contains(members[1].feed.Excluded(), 2) {
		t.Fatal("exclusion healed — output(P) must be monotone")
	}
}
