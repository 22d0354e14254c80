package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"realisticfd/internal/abcast"
	"realisticfd/internal/consensus"
	"realisticfd/internal/fd"
	"realisticfd/internal/heartbeat"
	"realisticfd/internal/membership"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
	"realisticfd/internal/transport"
	"realisticfd/internal/trb"
)

// The probes are the ledger entries no workload can read from the
// outside: each calls one layer's public functions in a loop of fixed
// length and reports the median batch. They run only in traced runs,
// each with the workload whose end-to-end metric it should move.

// probe runs fn under a span and stores the per-call time, in unit
// nanoseconds per unitNs, as a layer metric.
func probe(env *runEnv, res *result, name string, unitNs float64, batches, iters int, fn func()) {
	id := env.tr.begin(res.workload, name, -1)
	res.layer[name] = perOp(batches, iters, fn) / unitNs
	env.tr.end(id)
}

const (
	perNs = 1
	perUs = 1e3
)

// mustTrace runs one simulation and panics on a configuration error:
// the configurations are constants of this file, so an error is a bug
// here, not an input.
func mustTrace(cfg sim.Config, wantCondition bool) *sim.Trace {
	tr, err := sim.Execute(cfg)
	if err != nil {
		panic(fmt.Sprintf("benchmark: probe run failed: %v", err))
	}
	if wantCondition && tr.Stopped != sim.StopCondition {
		panic(fmt.Sprintf("benchmark: probe run did not reach its stop condition: %v", tr))
	}
	return tr
}

// probeSimEngine is cmd/bench's sim/engine-steps-n8: the short-run
// shape the E-tables put the engine in.
func probeSimEngine(env *runEnv, res *result) {
	seed := env.seed
	probe(env, res, "sim.execute_n8_us", perUs, 5, 40, func() {
		seed++
		mustTrace(sim.Config{
			N: 8, Automaton: scenario.BusyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Horizon: 2000, Seed: seed, Policy: &sim.RandomFairPolicy{},
		}, false)
	})
}

// probeFDCheck times the two class checkers E3 leans on, over one
// recorded n=64 history.
func probeFDCheck(env *runEnv, res *result) {
	pattern := model.MustPattern(64).MustCrash(7, 300).MustCrash(21, 900)
	history := fd.RecordHistory(fd.Perfect{Delay: 2}, pattern, 2000, 1)
	probe(env, res, "fd.check_us", perUs, 5, 200, func() {
		if v := fd.CheckStrongAccuracy(history, pattern); v != nil {
			panic(fmt.Sprintf("benchmark: P violates strong accuracy: %v", v))
		}
		if v := fd.CheckStrongCompleteness(history, pattern); v != nil {
			panic(fmt.Sprintf("benchmark: P violates strong completeness: %v", v))
		}
	})
}

// probeScenario times the spec pipeline on the n=64 chord spec: what a
// live run pays before it spawns and an E-table pays per table.
func probeScenario(env *runEnv, res *result) error {
	data, err := specFS.ReadFile("specs/live-kill-n64.json")
	if err != nil {
		return err
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		return err
	}
	if _, err := spec.Build(); err != nil {
		return err
	}
	// Parse, Build and CompilePlan succeeded on this input above (Parse
	// compiles the plan to validate it), so the loops drop their errors.
	probe(env, res, "scenario.parse_us", perUs, 5, 100, func() { _, _ = scenario.Parse(data) })
	probe(env, res, "scenario.build_us", perUs, 5, 100, func() { _, _ = spec.Build() })
	probe(env, res, "scenario.compile_plan_us", perUs, 5, 100, func() { _, _ = spec.CompilePlan() })
	return nil
}

// probeProtocols repeats cmd/bench's four protocol runs with the same
// configurations, so the BENCH_PR history stays comparable.
func probeProtocols(env *runEnv, res *result) {
	seed := env.seed
	next := func() int64 { seed++; return seed }
	probe(env, res, "consensus.sflooding_run_us", perUs, 5, 40, func() {
		mustTrace(sim.Config{
			N:         5,
			Automaton: consensus.SFlooding{Proposals: consensus.DistinctProposals(5)},
			Oracle:    fd.Perfect{Delay: 2},
			Pattern:   model.MustPattern(5).MustCrash(2, 40),
			Horizon:   20000, Seed: next(),
			Policy: &sim.RandomFairPolicy{}, StopWhen: sim.CorrectDecided(0),
		}, true)
	})
	probe(env, res, "consensus.rotating_run_us", perUs, 5, 40, func() {
		mustTrace(sim.Config{
			N:         5,
			Automaton: consensus.Rotating{Proposals: consensus.DistinctProposals(5)},
			Oracle:    fd.EventuallyStrong{GST: 50, Delay: 2, Seed: 3, FalseRate: 10},
			Pattern:   model.MustPattern(5).MustCrash(2, 40),
			Horizon:   20000, Seed: next(),
			Policy: &sim.RandomFairPolicy{}, StopWhen: sim.CorrectDecided(0),
		}, true)
	})
	probe(env, res, "trb.wave_us", perUs, 5, 40, func() {
		mustTrace(sim.Config{
			N: 5, Automaton: trb.Broadcast{Waves: 1}, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(5).MustCrash(2, 30),
			Horizon: 60000, Seed: next(),
			StopWhen: trb.AllDelivered(1),
		}, true)
	})
	script := make(map[model.ProcessID][]string, 5)
	for p := 1; p <= 5; p++ {
		script[model.ProcessID(p)] = []string{fmt.Sprintf("m-%d-0", p), fmt.Sprintf("m-%d-1", p)}
	}
	const deliveries = 5 * 10 // every process delivers all ten messages
	probe(env, res, "abcast.total_order_us", perUs, 5, 10, func() {
		mustTrace(sim.Config{
			N: 5, Automaton: abcast.Atomic{ToBroadcast: script, MaxInstances: 30},
			Oracle:  fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(5), Horizon: 120000, Seed: next(),
			StopWhen: func(tr *sim.Trace) bool {
				return len(tr.ProtocolEvents(sim.KindDeliver)) >= deliveries
			},
		}, true)
	})
}

// gossipFrame is the piggyback of a steady n-node cluster: counters a
// few thousand rounds in (two-byte varints) and two suspicions.
func gossipFrame(n int) heartbeat.Piggyback {
	pb := heartbeat.Piggyback{Origin: 1, Counters: make([]uint64, n), Suspects: make([]bool, n)}
	for i := range pb.Counters {
		pb.Counters[i] = uint64(3000 + i)
	}
	pb.Suspects[n/3], pb.Suspects[n/2] = true, true
	return pb
}

// gossipEnvelope wraps an encoded piggyback the way Gossiper.round
// does, and returns the binary payload beside it.
func gossipEnvelope(n int, to model.ProcessID) (transport.Envelope, []byte) {
	payload, err := gossipFrame(n).Encode()
	if err != nil {
		panic(fmt.Sprintf("benchmark: encode piggyback: %v", err))
	}
	env := transport.Envelope{To: to, Type: heartbeat.GossipEnvelopeType}
	if err := env.Marshal(payload); err != nil {
		panic(fmt.Sprintf("benchmark: marshal envelope: %v", err))
	}
	return env, payload
}

// probeCodec times the piggyback codec at three cluster sizes and
// records the exact payload sizes.
func probeCodec(env *runEnv, res *result) {
	for _, n := range []int{64, 256, 1024} {
		pb := gossipFrame(n)
		data, err := pb.Encode()
		if err != nil {
			panic(fmt.Sprintf("benchmark: encode piggyback: %v", err))
		}
		res.layer[fmt.Sprintf("heartbeat.payload_bytes_n%d", n)] = float64(len(data))
		probe(env, res, fmt.Sprintf("heartbeat.encode_ns_n%d", n), perNs, 5, 2000, func() { _, _ = pb.Encode() })
		probe(env, res, fmt.Sprintf("heartbeat.decode_ns_n%d", n), perNs, 5, 2000, func() { _, _ = heartbeat.DecodePiggyback(data) })
	}
}

// probeEstimators times one arrival and one verdict of each estimator
// on a regular 50 ms stream.
func probeEstimators(env *runEnv, res *result) {
	const interval = 50 * time.Millisecond
	kinds := []struct {
		name string
		est  heartbeat.Estimator
	}{
		{"fixed", &heartbeat.FixedTimeout{Timeout: 600 * time.Millisecond}},
		{"chen", &heartbeat.Chen{Window: 16, Alpha: 4 * interval}},
		{"phi", &heartbeat.PhiAccrual{Window: 64, Threshold: 8, MinStdDev: interval / 4, FirstTimeout: 20 * interval}},
	}
	for _, k := range kinds {
		at := time.Unix(1_700_000_000, 0)
		probe(env, res, "heartbeat.observe_ns_"+k.name, perNs, 5, 5000, func() {
			at = at.Add(interval)
			k.est.Observe(at)
		})
		probe(env, res, "heartbeat.suspect_ns_"+k.name, perNs, 5, 5000, func() { _ = k.est.Suspect(at.Add(interval / 2)) })
	}
}

// probeMerge pushes pre-encoded n=256 frames into one real Gossiper's
// receive queue and waits until its counter shows the last of them:
// envelope unmarshal, piggyback decode and a merge in which every
// counter rises, so all 255 estimators observe an arrival.
func probeMerge(env *runEnv, res *result) error {
	const (
		n      = 256
		window = fabricInbox / 2 // frames in flight; the inbox never fills
		rounds = 16
	)
	fab := newFabric(n, 0)
	// One round per hour: the gossiper under test only receives.
	g, err := heartbeat.NewGossiper(fab.node(1), heartbeat.GossipConfig{
		Self: 1, N: n, Peers: []int{2}, Interval: time.Hour,
		NewEstimator: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: meshTimeout} },
	})
	if err != nil {
		return err
	}
	defer g.Close()
	pb := heartbeat.Piggyback{Origin: 2, Counters: make([]uint64, n), Suspects: make([]bool, n)}
	frames := make([]transport.Envelope, rounds*window)
	for i := range frames {
		for q := range pb.Counters {
			pb.Counters[q] = uint64(i + 1)
		}
		data, err := pb.Encode()
		if err != nil {
			return err
		}
		frames[i] = transport.Envelope{To: 1, Type: heartbeat.GossipEnvelopeType}
		if err := frames[i].Marshal(data); err != nil {
			return err
		}
	}
	sender := fab.node(2)
	var samples []float64
	id := env.tr.begin(res.workload, "heartbeat.merge_us_n256", -1)
	for r := 0; r < rounds; r++ {
		batch := frames[r*window : (r+1)*window]
		t0 := time.Now()
		for _, f := range batch {
			if err := sender.Send(f); err != nil {
				return err
			}
		}
		for g.Counter(2) < uint64((r+1)*window) {
			if time.Since(t0) > 10*time.Second {
				return fmt.Errorf("merge probe: gossiper stuck at counter %d", g.Counter(2))
			}
			time.Sleep(20 * time.Microsecond)
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(window)/1e3)
	}
	env.tr.end(id)
	res.layer["heartbeat.merge_us_n256"] = median(samples)
	if d := fab.dropped.Load(); d != 0 {
		return fmt.Errorf("merge probe: fabric dropped %d frames", d)
	}
	return nil
}

// probeTCP drives two TCPNodes on loopback with n=256-sized gossip
// envelopes: a one-way stream kept to a window so the receiver's inbox
// never fills, then a ping-pong for the round trip.
func probeTCP(env *runEnv, res *result) error {
	a, err := transport.NewTCPNode(1)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCPNode(2)
	if err != nil {
		return err
	}
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())

	frame, payload := gossipEnvelope(256, 2)
	var wire bytes.Buffer
	if err := transport.WriteJSON(&wire, frame); err != nil {
		return err
	}
	res.layer["transport.frame_bytes_n256"] = float64(wire.Len())
	res.layer["transport.envelope_overhead"] = float64(wire.Len()) / float64(len(payload))

	const (
		frames = 20000
		window = 128 // half of TCPNode's inbox
	)
	// got carries one token per frame b received; its buffer is the
	// window, so the reader never waits on the sender.
	got := make(chan struct{}, window)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for range b.Recv() {
			select {
			case got <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		_ = b.Close() // closes Recv, which ends the reader
		<-done
	}()
	id := env.tr.begin(res.workload, "transport.tcp_stream", -1)
	var sendNs int64
	received, inFlight := 0, 0
	start := time.Now()
	for sent := 0; sent < frames; sent++ {
		for inFlight >= window {
			select {
			case <-got:
				received++
				inFlight--
			case <-time.After(5 * time.Second):
				// A frame the inbox shed never returns its token.
				inFlight = 0
			}
		}
		t0 := time.Now()
		if err := a.Send(frame); err != nil {
			return err
		}
		sendNs += time.Since(t0).Nanoseconds()
		inFlight++
	}
	for inFlight > 0 {
		select {
		case <-got:
			received++
			inFlight--
		case <-time.After(2 * time.Second):
			inFlight = 0
		}
	}
	wall := time.Since(start).Seconds()
	env.tr.end(id)
	res.layer["transport.tcp_frames_per_s"] = float64(received) / wall
	res.layer["transport.tcp_send_us"] = float64(sendNs) / frames / 1e3
	res.layer["transport.tcp_inbox_drops"] = float64(frames - received)

	// Round trip: b's reader now echoes, a's side measures.
	echo, _ := gossipEnvelope(256, 1)
	const trips = 500
	rtts := make([]float64, 0, trips)
	id = env.tr.begin(res.workload, "transport.tcp_rtt", -1)
	for i := 0; i < trips; i++ {
		t0 := time.Now()
		if err := a.Send(frame); err != nil {
			return err
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("tcp probe: frame %d never arrived", i)
		}
		if err := b.Send(echo); err != nil {
			return err
		}
		select {
		case <-a.Recv():
		case <-time.After(5 * time.Second):
			return fmt.Errorf("tcp probe: echo %d never arrived", i)
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	env.tr.end(id)
	sort.Float64s(rtts)
	res.layer["transport.tcp_rtt_us_p50"] = quantile(rtts, 0.5)
	return nil
}

// probeFaultHook times one drop/delay verdict at the rates
// live-lossy-n32 runs under, over a node's 9 chord neighbours.
func probeFaultHook(env *runEnv, res *result) {
	hook := transport.NewFaultHook(1, uint64(env.seed))
	hook.SetDrop(10)
	hook.SetDelayMax(20)
	to := 0
	probe(env, res, "transport.faulthook_decide_ns", perNs, 5, 20000, func() {
		to = to%9 + 2
		hook.Decide(model.ProcessID(to))
	})
}

// probeMembership times what a cluster node does to its Feed on every
// verdict sample: admit the known set, fold the suspicion snapshot.
func probeMembership(env *runEnv, res *result) {
	feed, err := membership.NewFeed(1, 64)
	if err != nil {
		panic(fmt.Sprintf("benchmark: feed: %v", err))
	}
	known := make([]int, 64)
	for i := range known {
		known[i] = i + 1
	}
	suspects := []int{3, 11}
	probe(env, res, "membership.feed_update_us_n64", perUs, 5, 2000, func() {
		for _, id := range known {
			feed.Admit(id)
		}
		feed.Update(suspects)
	})
}
