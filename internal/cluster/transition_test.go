package cluster

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"realisticfd/internal/heartbeat"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/transport"
)

// TestTransitionReportComplete: what a node has applied after catchUp
// is every transition up to the instant catchUp returned — the report
// built at ctlCollect ends at that instant and misses none. The peer is
// paused and resumed all along, so transitions are in flight at most
// catch-ups.
func TestTransitionReportComplete(t *testing.T) {
	const (
		interval = 2 * time.Millisecond
		timeout  = 15 * time.Millisecond
	)
	net, err := transport.NewChanNetwork(4) // the smallest there is; nodes 3 and 4 never join
	if err != nil {
		t.Fatal(err)
	}
	gossiper := func(self, peer int) *heartbeat.Gossiper {
		g, err := heartbeat.NewGossiper(net.Node(model.ProcessID(self)), heartbeat.GossipConfig{
			Self: self, N: 4, Peers: []int{peer}, Interval: interval, Deferred: []int{3, 4},
			NewEstimator: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: timeout} },
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range g.Forward() {
			}
		}()
		return g
	}
	observer := gossiper(1, 2)
	log := newVerdictLog(observer, nil)
	peer := gossiper(2, 1)
	defer observer.Close()
	defer peer.Close()

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for muted := true; ; muted = !muted {
			peer.SetMuted(muted)
			select {
			case <-stop:
				return
			case <-time.After(timeout + 5*interval):
			}
		}
	}()

	rng := rand.New(rand.NewSource(1))
	for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); {
		upTo := log.catchUp()
		time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
		for late := true; late; {
			select {
			case tr := <-log.in:
				if !tr.At.After(upTo) {
					t.Fatalf("transition %+v, stamped %v before the catch-up instant, was not in the queue then", tr, upTo.Sub(tr.At))
				}
				log.apply(tr)
			default:
				late = false
			}
		}
	}
	close(stop)
	<-stopped

	flips := log.flips[2]
	if len(flips) < 20 {
		t.Fatalf("only %d flips in 1.5 s of pausing and resuming the peer every %v", len(flips), timeout+5*interval)
	}
	for i, f := range flips {
		if f.Suspected != (i%2 == 0) {
			t.Fatalf("flip %d is suspected=%v: the flips do not alternate from a first suspicion: %+v", i, f.Suspected, flips)
		}
		if i > 0 && f.AtUnixNano < flips[i-1].AtUnixNano {
			t.Fatalf("flip %d is stamped before flip %d", i, i-1)
		}
	}
	if drops := observer.Stats().TransitionDrops; drops != 0 {
		t.Fatalf("%d transitions dropped", drops)
	}
}

// TestTransitionDetectionMedian: with the verdicts sampled once a
// period, a timeout was noticed half a period late on average and its
// tick-stamped flip then sat just past a point of the fold's grid,
// waiting out almost a whole further period: a median detection time
// of timeout + 1½ periods and more. Stamped when the timeout expires,
// the flip pays only the fold's half period. The bound sits between:
// the parent commit measured 351–382 ms in seven runs, this code
// 318–333 ms in thirteen, with and without the race detector.
func TestTransitionDetectionMedian(t *testing.T) {
	const (
		period  = 50
		timeout = 300
		bound   = 345
	)
	spec := scenario.LiveSpec{
		Name:       "detection-median",
		N:          8,
		IntervalMs: period, // and the sample period by default
		Estimator:  scenario.LiveEstimatorSpec{Kind: scenario.LiveEstFixed, TimeoutMs: timeout},
		WarmupMs:   600,
		SettleMs:   900,
		Schedule: []scenario.LiveEventSpec{
			{AtMs: 0, Action: scenario.LiveKill, Nodes: []int{3}},
			{AtMs: 617, Action: scenario.LiveKill, Nodes: []int{6}},
			{AtMs: 1231, Action: scenario.LiveKill, Nodes: []int{8}},
		},
	}
	spec.Normalize()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{Spec: spec, Spawner: InProcSpawner{}, Seed: 1, IncludePairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("run failed:\n%s", strings.Join(res.Failures, "\n"))
	}
	killed := map[int]bool{3: true, 6: true, 8: true}
	var ms []float64
	for _, p := range res.Pairs {
		if killed[p.Target] {
			if !p.Detected {
				t.Fatalf("node %d never suspected killed node %d", p.Observer, p.Target)
			}
			ms = append(ms, p.DetectionMs)
		}
	}
	sort.Float64s(ms)
	if len(ms) != 5*3 {
		t.Fatalf("%d observer×victim pairs, want 5 survivors × 3 victims", len(ms))
	}
	if median := ms[7]; median > bound {
		t.Fatalf("median detection %.1f ms of %v, want ≤ %d ms", median, ms, bound)
	} else {
		t.Logf("median detection %.1f ms (timeout %d, period %d): %v", median, timeout, period, ms)
	}
}
