package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"realisticfd/internal/heartbeat"
	"realisticfd/internal/scenario"
)

// gossip-mesh-n256 sizes. n=512 at this interval saturates two cores,
// and then the numbers describe the scheduler, not the gossip layer.
const (
	meshName      = "gossip-mesh-n256"
	meshN         = 256
	meshInterval  = 100 * time.Millisecond
	meshTimeout   = 1200 * time.Millisecond
	meshWarmup    = 2 * time.Second
	meshEvery     = time.Second     // one victim muted per period
	meshTail      = 3 * time.Second // time the last victim is given to be noticed
	meshObservers = 24              // polled nodes; never victims
	meshPoll      = 10 * time.Millisecond
)

// mesh is 256 real Gossipers wired through the counting fabric.
type mesh struct {
	fab *fabric
	gs  []*heartbeat.Gossiper // index id-1
}

// chordPeers returns every node's overlay neighbours, sorted.
func chordPeers(n int) ([][]int, error) {
	edges, err := scenario.TopologySpec{Kind: scenario.TopologyChord}.Edges(n)
	if err != nil {
		return nil, err
	}
	peers := make([][]int, n+1)
	for _, e := range edges {
		a, b := int(e.A), int(e.B)
		peers[a] = append(peers[a], b)
		peers[b] = append(peers[b], a)
	}
	for _, p := range peers {
		sort.Ints(p)
	}
	return peers, nil
}

// startMesh builds the fabric, starts every gossiper on it and waits
// until the round each emits at once has been sent and taken in
// everywhere. Returning earlier would time a race between this
// goroutine and that first round for the two processors. watch is the
// node whose Send instants the fabric keeps, or 0 for none.
func startMesh(seed int64, watch int) (*mesh, error) {
	peers, err := chordPeers(meshN)
	if err != nil {
		return nil, err
	}
	m := &mesh{fab: newFabric(meshN, watch), gs: make([]*heartbeat.Gossiper, meshN)}
	firstRound := int64(0) // frames the gossipers emit on starting
	for id := 1; id <= meshN; id++ {
		g, err := heartbeat.NewGossiper(m.fab.node(id), heartbeat.GossipConfig{
			Self:         id,
			N:            meshN,
			Peers:        peers[id],
			Interval:     meshInterval,
			NewEstimator: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: meshTimeout} },
			Seed:         seed + int64(id),
		})
		if err != nil {
			m.close()
			return nil, err
		}
		m.gs[id-1] = g
		// Nothing but gossip travels here; keep the forward queue empty
		// the way a cluster node does.
		go func() {
			for range g.Forward() {
			}
		}()
		firstRound += int64(len(peers[id]))
	}
	for deadline := time.Now().Add(10 * time.Second); !m.fab.quiet(firstRound); {
		if time.Now().After(deadline) {
			m.close()
			return nil, fmt.Errorf("%s: the first gossip round never settled", meshName)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return m, nil
}

// close stops every gossiper and waits for its goroutines.
func (m *mesh) close() {
	for _, g := range m.gs {
		if g != nil {
			g.Close()
		}
	}
}

// meshPlan is who watches and who is muted when, all from the seed.
type meshPlan struct {
	observers []int
	victims   []int
	muteAt    []time.Duration // offset from the start of the timed section
}

func planMesh(seed int64, seconds int) meshPlan {
	var p meshPlan
	isObserver := map[int]bool{}
	for i := 0; i < meshObservers; i++ {
		id := i*meshN/meshObservers + 1
		p.observers = append(p.observers, id)
		isObserver[id] = true
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(meshN)
	total := time.Duration(seconds) * time.Second
	for at, i := meshWarmup, 0; at+meshTail <= total && i < len(order); i++ {
		if id := order[i] + 1; !isObserver[id] {
			p.victims = append(p.victims, id)
			p.muteAt = append(p.muteAt, at)
			at += meshEvery
		}
	}
	// A victim's silence is noticed a fixed timeout after its last
	// round, so where in its round a mute falls moves the detection
	// time by up to one interval. Spreading the mutes over the interval
	// makes the median an average over that phase, not a draw from it.
	for i := range p.muteAt {
		p.muteAt[i] += time.Duration(i) * meshInterval / time.Duration(len(p.muteAt))
	}
	return p
}

// meshPass is what one timed section of the mesh observed.
type meshPass struct {
	sec          section
	detectMs     []float64 // sorted
	pairs        int
	accuracyMin  float64
	falseFlips   int
	nodeSeconds  float64
	cpuPerNode   float64  // CPU reference seconds per node-second, median window
	cpuRaw       float64  // the same as the CPU clock read it
	rounds       []uint64 // per node, emitted during the section
	frames       int64
	bodyBytes    int64
	dropped      int64
	burstsMicros []float64 // spread of the watched node's sends, per round
}

// drive runs the timed section on a started mesh: warm up, mute one
// victim per period, and poll the observers' verdicts from this one
// goroutine.
func (m *mesh) drive(p meshPlan, seconds int) meshPass {
	type pair struct{ o, v int }
	var (
		pass      = meshPass{pairs: len(p.observers) * len(p.victims), accuracyMin: 1}
		isVictim  = map[int]bool{}
		mutedAt   = map[int]time.Time{}
		detected  = map[pair]bool{}
		polls     = 0
		suspected = make([][]int, len(p.observers))  // polls each clean target was suspected in
		last      = make([][]bool, len(p.observers)) // previous verdicts, to count flips
	)
	for _, v := range p.victims {
		isVictim[v] = true
	}
	for i := range suspected {
		suspected[i] = make([]int, meshN)
		last[i] = make([]bool, meshN)
	}
	total := time.Duration(seconds) * time.Second

	pass.sec = measure(func() {
		cpu := startCPUSampler(total / cpuWindows)
		start := time.Now()
		frames0, bytes0 := m.fab.frames.Load(), m.fab.bodyBytes.Load()
		rounds0 := make([]uint64, len(m.gs))
		for i, g := range m.gs {
			rounds0[i] = g.Rounds()
		}
		next := 0
		ticker := time.NewTicker(meshPoll)
		defer ticker.Stop()
		for range ticker.C {
			now := time.Now()
			el := now.Sub(start)
			if el >= total {
				break
			}
			for next < len(p.victims) && el >= p.muteAt[next] {
				m.gs[p.victims[next]-1].SetMuted(true)
				mutedAt[p.victims[next]] = now
				next++
			}
			polls++
			for i, o := range p.observers {
				verdicts := m.gs[o-1].Verdicts(now)
				for q := 1; q <= meshN; q++ {
					s := verdicts[q-1]
					if isVictim[q] {
						if at, muted := mutedAt[q]; muted && s && !detected[pair{o, q}] {
							detected[pair{o, q}] = true
							pass.detectMs = append(pass.detectMs, float64(now.Sub(at).Nanoseconds())/1e6)
						}
						continue
					}
					if s {
						suspected[i][q-1]++
						if !last[i][q-1] {
							pass.falseFlips++
						}
					}
					last[i][q-1] = s
				}
			}
		}
		end := time.Now()
		lives := make([]lifetime, meshN)
		for id := range lives {
			lives[id] = lifetime{to: survivor}
			if at, muted := mutedAt[id+1]; muted {
				lives[id].to = at.Sub(start)
			}
		}
		pass.nodeSeconds = nodeSeconds(lives, 0, end.Sub(start))
		for i, g := range m.gs {
			pass.rounds = append(pass.rounds, g.Rounds()-rounds0[i])
		}
		pass.frames, pass.bodyBytes, pass.dropped = m.fab.frames.Load()-frames0, m.fab.bodyBytes.Load()-bytes0, m.fab.dropped.Load()
		// Last, because it waits out the sampler's tick in progress while
		// the mesh goes on sending.
		pass.cpuRaw, pass.cpuPerNode = cpu.perNodeSecond(lives)
	})

	sort.Float64s(pass.detectMs)
	for i := range suspected {
		for q, n := range suspected[i] {
			if isVictim[q+1] || polls == 0 {
				continue
			}
			if acc := 1 - float64(n)/float64(polls); acc < pass.accuracyMin {
				pass.accuracyMin = acc
			}
		}
	}
	pass.burstsMicros = bursts(m.fab.watched(), meshInterval/2)
	return pass
}

// bursts splits one sender's Send instants into rounds (a gap of more
// than gap starts a new round) and returns each round's first→last
// spread in microseconds.
func bursts(sends []time.Time, gap time.Duration) []float64 {
	var out []float64
	for i := 0; i < len(sends); {
		j := i
		for j+1 < len(sends) && sends[j+1].Sub(sends[j]) <= gap {
			j++
		}
		out = append(out, float64(sends[j].Sub(sends[i]).Nanoseconds())/1e3)
		i = j + 1
	}
	return out
}

func runMesh(env *runEnv) (*result, error) {
	res := newResult(meshName)
	plan := planMesh(env.seed, env.seconds)
	if len(plan.victims) == 0 {
		return nil, fmt.Errorf("%s: -seconds %d leaves no room for a victim (need ≥ %v)", meshName, env.seconds, meshWarmup+meshTail)
	}

	// Set-up is building and starting the mesh; the copies built only
	// to be timed are torn down off the clock.
	var m *mesh
	setup, err := setupSeconds(func() error {
		var err error
		m, err = startMesh(env.seed, 0)
		return err
	}, func() { m.close() })
	if err != nil {
		return nil, err
	}
	root := env.tr.begin(meshName, "mesh.untraced", -1)
	pass := m.drive(plan, env.seconds)
	env.tr.end(root)
	m.close()

	res.checkN(pass.pairs, pass.pairs-len(pass.detectMs), "observer×victim pair never detected (%d of %d detected)", len(pass.detectMs), pass.pairs)
	res.checkN(int(pass.frames), int(pass.dropped), "frame dropped by the mesh fabric (%d of %d)", pass.dropped, pass.frames)
	res.wall = pass.sec.wall
	res.e2e["setup_s"] = setup
	res.e2e["detect_ms_p50"] = quantile(pass.detectMs, 0.5)
	res.e2e["detect_ms_p90"] = quantile(pass.detectMs, 0.9)
	res.e2e["query_accuracy_min"] = pass.accuracyMin
	res.e2e["cpu_s_per_node_s"] = pass.cpuPerNode
	res.e2e["gossip_bytes_per_node_s"] = float64(pass.bodyBytes) / pass.nodeSeconds
	var totalRounds uint64
	for _, r := range pass.rounds {
		totalRounds += r
	}
	perRound := float64(pass.frames) / float64(totalRounds)
	res.note("n=%d chord interval=%v fixed timeout=%v, %d victims × %d observers polled every %v, in-memory fabric",
		meshN, meshInterval, meshTimeout, len(plan.victims), len(plan.observers), meshPoll)
	res.note("%d detections of %d pairs (%d beyond p90), wall=%.3fs cpu=%.2fs node-seconds=%.1f (the CPU metric is the median of %d windows in reference seconds; as read it is %.6f)",
		len(pass.detectMs), pass.pairs, beyond(len(pass.detectMs), 0.9), pass.sec.wall, pass.sec.cpu, pass.nodeSeconds, cpuWindows, pass.cpuRaw)
	res.note("%.2f frames and %.0f body bytes per node per round against the 2·⌈log₂ n⌉ = %d yardstick; %.0f B per node-second",
		perRound, float64(pass.bodyBytes)/float64(totalRounds), yardstick(meshN), float64(pass.bodyBytes)/pass.nodeSeconds)

	if env.tr == nil {
		return res, nil
	}

	tm, err := startMesh(env.seed, plan.observers[0])
	if err != nil {
		return nil, err
	}
	root = env.tr.begin(meshName, "mesh.traced", -1)
	tp := tm.drive(plan, env.seconds)
	env.tr.end(root)
	tm.close()

	res.check(len(tp.detectMs) == tp.pairs && tp.dropped == 0, "traced run: %d of %d pairs detected, %d fabric drops", len(tp.detectMs), tp.pairs, tp.dropped)
	var rounds uint64
	var ratios []float64
	victim := map[int]bool{}
	for _, v := range plan.victims {
		victim[v] = true
	}
	for i, r := range tp.rounds {
		rounds += r
		if !victim[i+1] {
			ratios = append(ratios, float64(r)/(tp.sec.wall/meshInterval.Seconds()))
		}
	}
	res.layer["heartbeat.frames_per_node_round"] = float64(tp.frames) / float64(rounds)
	res.layer["heartbeat.bytes_per_frame"] = float64(tp.bodyBytes) / float64(tp.frames)
	res.layer["heartbeat.rounds_ratio"] = median(ratios)
	res.layer["heartbeat.round_burst_us_n256"] = median(tp.burstsMicros)
	res.layer["heartbeat.detect_margin_ms"] = quantile(tp.detectMs, 0.5) - float64(meshTimeout.Milliseconds())
	res.layer["heartbeat.false_suspicions"] = float64(tp.falseFlips)
	res.layer["trace_overhead_ratio"] = tp.sec.wall / pass.sec.wall
	probeCodec(env, res)
	probeEstimators(env, res)
	return res, probeMerge(env, res)
}
