package heartbeat

import (
	"slices"
	"testing"
	"time"

	"realisticfd/internal/transport"
)

// waitUntil polls cond every ms up to limit.
func waitUntil(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// suspects lists the IDs g's verdicts suspect.
func suspects(g *Gossiper) []int {
	var out []int
	for i, s := range g.Verdicts(time.Now()) {
		if s {
			out = append(out, i+1)
		}
	}
	return out
}

// TestDetectorOverChanNetwork: four gossipers beating to each other
// over the in-process network trust one another while healthy, and once
// node 3 is isolated (transport-level crash) node 1 suspects it and
// nobody else.
func TestDetectorOverChanNetwork(t *testing.T) {
	t.Parallel()
	const n = 4
	net, err := transport.NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	others := func(p int) []int { return slices.DeleteFunc([]int{1, 2, 3, 4}, func(q int) bool { return q == p }) }
	for p := 2; p <= n; p++ {
		meshNode(t, net, n, p, others(p), 5*time.Millisecond, 50*time.Millisecond)
	}
	det := meshNode(t, net, n, 1, others(1), 5*time.Millisecond, 50*time.Millisecond)

	waitFor(t, "every peer heard from and trusted", 2*time.Second, func() bool {
		return len(suspects(det)) == 0 && det.Counter(3) > 0
	})
	// Hold the trust for a few timeouts.
	time.Sleep(120 * time.Millisecond)
	if s := suspects(det); len(s) != 0 {
		t.Fatalf("healthy peers suspected after warmup: %v", s)
	}

	net.Isolate(3)
	waitFor(t, "node 3, isolated, to be suspected alone", 2*time.Second, func() bool {
		return slices.Equal(suspects(det), []int{3})
	})
}

// TestDetectorOverTCP: a φ-accrual gossiper over loopback TCP trusts a
// beating peer and suspects it once the peer's process side is gone.
func TestDetectorOverTCP(t *testing.T) {
	t.Parallel()
	// Nodes 3 and 4 only make up the model's n > 3; they never beat.
	nodes, err := transport.NewTCPCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.CloseTCPCluster(nodes[2:])
	start := func(self, peer int, est func() Estimator) *Gossiper {
		g, err := NewGossiper(nodes[self-1], GossipConfig{
			Self:         self,
			N:            len(nodes),
			Peers:        []int{peer},
			Interval:     5 * time.Millisecond,
			NewEstimator: est,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	det := start(1, 2, func() Estimator {
		return &PhiAccrual{Window: 32, Threshold: 4, MinStdDev: 2 * time.Millisecond}
	})
	defer det.Close()
	peer := start(2, 1, func() Estimator { return &FixedTimeout{Timeout: time.Hour} })

	// Let the estimator accumulate real inter-arrival samples (φ needs
	// at least two heartbeats before it can judge anything).
	time.Sleep(150 * time.Millisecond)
	if det.Counter(2) == 0 {
		t.Fatal("no heartbeat crossed the TCP link")
	}
	if det.Verdicts(time.Now())[1] {
		t.Fatal("live TCP peer suspected")
	}
	// Kill the peer (closing the gossiper closes its TCP node):
	// suspicion must follow.
	peer.Close()
	if !waitUntil(3*time.Second, func() bool { return det.Verdicts(time.Now())[1] }) {
		t.Fatal("dead TCP peer not suspected")
	}
}
