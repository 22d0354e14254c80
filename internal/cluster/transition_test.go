package cluster

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"realisticfd/internal/heartbeat"
	"realisticfd/internal/membership"
	"realisticfd/internal/qos"
	"realisticfd/internal/scenario"
	"realisticfd/internal/transport"
)

// TestTransitionReportComplete: the report a node builds at ctlCollect
// ends at the instant the gossiper read with its log, its Flips are
// every verdict change the log holds up to that instant, and the log's
// tail the loop has not followed yet reaches the membership feed before
// the report reads it. The observer's two peers go silent and are
// suspected, which the node follows (the group of three cannot exclude
// both); then one frame refutes node 2 and sights joiner 4, and the
// report comes before the node follows that.
func TestTransitionReportComplete(t *testing.T) {
	const timeout = 100 * time.Millisecond
	net, err := transport.NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := heartbeat.NewGossiper(net.Node(1), heartbeat.GossipConfig{
		Self: 1, N: 4, Peers: []int{2}, Interval: time.Hour, Deferred: []int{4},
		NewEstimator: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: timeout} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	feed, err := membership.NewFeedMembers(1, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	nd := &node{cfg: NodeConfig{ID: 1}, g: g, feed: feed, start: time.Now()}

	// awaitLog waits, through Changed, for the log to hold n entries.
	awaitLog := func(n int) []heartbeat.Transition {
		t.Helper()
		expired := time.After(5 * time.Second)
		for {
			if _, log := g.Transitions(0); len(log) >= n {
				return log
			}
			select {
			case <-g.Changed():
			case <-expired:
				_, log := g.Transitions(0)
				t.Fatalf("log %+v, want %d entries", log, n)
			}
		}
	}
	nd.follow(awaitLog(2))
	body, err := heartbeat.Piggyback{Origin: 2, Counters: []uint64{0, 1, 0, 1}, Suspects: make([]bool, 4)}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Node(2).Send(transport.Envelope{To: 1, Type: heartbeat.GossipEnvelopeType, Body: body}); err != nil {
		t.Fatal(err)
	}
	awaitLog(4)
	rep := nd.report()

	_, log := g.Transitions(0)
	if got := []heartbeat.Cause{log[0].Cause, log[1].Cause, log[2].Cause, log[3].Cause}; !slices.Equal(got, []heartbeat.Cause{
		heartbeat.CauseOwnDeadline, heartbeat.CauseOwnDeadline, heartbeat.CauseFresherCounter, heartbeat.CauseFirstSighting,
	}) || log[2].Peer != 2 || log[3].Peer != 4 {
		t.Fatalf("log %+v, want nodes 2 and 3 suspected, then 2 trusted and 4 sighted", log)
	}
	want := map[int][]qos.Flip{}
	for _, tr := range log {
		if tr.At.UnixNano() <= rep.EndUnixNano && tr.Cause != heartbeat.CauseFirstSighting {
			want[tr.Peer] = append(want[tr.Peer], qos.Flip{AtUnixNano: tr.At.UnixNano(), Suspected: tr.Suspected})
		}
	}
	if !reflect.DeepEqual(rep.Flips, want) {
		t.Fatalf("report ending at %d has flips %+v, want the log's up to then: %+v", rep.EndUnixNano, rep.Flips, want)
	}
	// Joiner 4 is admitted first, so the group of four can exclude node 3,
	// still suspected, at the report's sample.
	if !slices.Equal(rep.Members, []int{1, 2, 4}) || !slices.Equal(rep.Excluded, []int{3}) || rep.Samples != 1 {
		t.Fatalf("report has members %v, excluded %v and %d samples, want [1 2 4], [3] and one sample", rep.Members, rep.Excluded, rep.Samples)
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
	spec := liveSpec("detection-median", 8, scenario.LiveParams{
		IntervalMs: period, // and the sample period by default
		Estimator:  scenario.LiveEstimatorSpec{Kind: scenario.LiveEstFixed, TimeoutMs: timeout},
		WarmupMs:   600,
		SettleMs:   900,
	},
		scenario.ActionSpec{At: 0, Action: "kill", Nodes: []int{3}},
		scenario.ActionSpec{At: 617, Action: "kill", Nodes: []int{6}},
		scenario.ActionSpec{At: 1231, Action: "kill", Nodes: []int{8}},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{Scenario: spec, Spawner: InProcSpawner{}, Seed: 1, IncludePairs: true})
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
