package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"realisticfd/internal/qos"
	"realisticfd/internal/scenario"
	"realisticfd/internal/transport"
)

// Config parameterizes one orchestrated run. Exactly one of Spec and
// Scenario describes the run: Spec is the legacy live format whose
// schedule is compiled to the fault-plan IR on entry; Scenario is a
// /v3 spec whose plan and live parameters drive the run directly —
// both formats reach the same interpreter.
type Config struct {
	// Spec is the normalized, validated live scenario (legacy format);
	// used when Scenario is nil.
	Spec scenario.LiveSpec
	// Scenario, when non-nil, is a parsed /v3 spec: its fault plan,
	// topology and live parameters define the run.
	Scenario *scenario.Spec
	// Spawner launches the nodes (processes or goroutines).
	Spawner Spawner
	// Seed perturbs each node's fanout sampling (node i gets Seed+i)
	// and derives the per-node fault-hook lottery seeds.
	Seed int64
	// IncludePairs adds the full observer×target metric matrix to the
	// result (n·(n−1) entries — summaries only, by default).
	IncludePairs bool
	// CollectFaultDecisions ships each node's recorded per-link
	// drop-verdict prefixes in its report — the cross-run determinism
	// audit.
	CollectFaultDecisions bool
	// HelloTimeout bounds cluster assembly (default 60s).
	HelloTimeout time.Duration
	// CollectTimeout bounds report collection (default 30s): a wedged
	// node fails the run instead of hanging it.
	CollectTimeout time.Duration
	// Log receives progress lines; nil is silent.
	Log io.Writer
}

// runSpec is the resolved form both Config formats reduce to: one
// interpreter input, whichever spec vocabulary described the run.
type runSpec struct {
	name   string
	n      int
	topo   scenario.TopologySpec
	live   scenario.LiveParams
	plan   *scenario.FaultPlan
	digest string
}

// resolveRun compiles the Config's spec — either format — into the
// interpreter's input.
func resolveRun(cfg Config) (runSpec, error) {
	if cfg.Scenario != nil {
		s := *cfg.Scenario
		plan, err := s.CompilePlan()
		if err != nil {
			return runSpec{}, err
		}
		var live scenario.LiveParams
		if s.Live != nil {
			live = *s.Live
		}
		live.Normalize()
		digest, err := s.ConfigDigest()
		if err != nil {
			return runSpec{}, err
		}
		return runSpec{name: s.Name, n: s.N, topo: s.Topology, live: live, plan: plan, digest: digest}, nil
	}
	spec := cfg.Spec
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return runSpec{}, err
	}
	plan, err := spec.CompilePlan()
	if err != nil {
		return runSpec{}, err
	}
	digest, err := spec.ConfigDigest()
	if err != nil {
		return runSpec{}, err
	}
	return runSpec{name: spec.Name, n: spec.N, topo: spec.Topology, live: spec.LiveDefaults(), plan: plan, digest: digest}, nil
}

// joins returns the plan's joiner→instant index (empty when no plan).
func (rs runSpec) joins() map[int]int64 {
	if rs.plan == nil {
		return nil
	}
	return rs.plan.Joins
}

// needsFaultHook reports whether the plan ever touches the loss axes —
// only then do nodes install a transport.FaultHook, keeping legacy
// runs on the exact pre-hook send path.
func (rs runSpec) needsFaultHook() bool {
	if rs.plan == nil {
		return false
	}
	for _, a := range rs.plan.Actions {
		if a.Kind == scenario.ActDrop || a.Kind == scenario.ActDelay {
			return true
		}
	}
	return false
}

// faultSeedFor derives node id's fault-hook lottery seed from the run
// seed: distinct per node, never zero (zero means "no hook").
func faultSeedFor(seed int64, id int) int64 {
	fs := seed*1_000_003 + int64(id)
	if fs == 0 {
		fs = int64(id) + 1
	}
	return fs
}

// PairMetric is one observer's QoS verdict about one target, folded
// from its flip report — the live counterpart of one simulator E-row
// cell.
type PairMetric struct {
	Observer           int     `json:"observer"`
	Target             int     `json:"target"`
	Detected           bool    `json:"detected,omitempty"`
	DetectionMs        float64 `json:"detection_ms,omitempty"`
	Mistakes           int     `json:"mistakes,omitempty"`
	MistakeRatePerSec  float64 `json:"mistake_rate_per_sec,omitempty"`
	AvgMistakeMs       float64 `json:"avg_mistake_ms,omitempty"`
	QueryAccuracy      float64 `json:"query_accuracy"`
	SuspectedAtCollect bool    `json:"suspected_at_collect,omitempty"`
}

// KillReport aggregates detection of one killed (or departed) node
// across the surviving observers.
type KillReport struct {
	Target          int     `json:"target"`
	AtMs            int64   `json:"at_ms"`
	Observers       int     `json:"observers"`
	Detected        int     `json:"detected"`
	MeanDetectionMs float64 `json:"mean_detection_ms"`
	MaxDetectionMs  float64 `json:"max_detection_ms"`
}

// PauseReport records which observers still suspected a
// paused-then-resumed node when metrics were collected — the
// wrongly-suspected-forever check.
type PauseReport struct {
	Target           int   `json:"target"`
	SuspectedAtEndBy []int `json:"suspected_at_end_by,omitempty"`
}

// JoinReport aggregates the cluster's adoption of one mid-run joiner:
// how many survivors' gossip state carries its counters, and how many
// grew their membership view to include it.
type JoinReport struct {
	Target    int   `json:"target"`
	AtMs      int64 `json:"at_ms"`
	Observers int   `json:"observers"`
	KnownBy   int   `json:"known_by"`
	InViewOf  int   `json:"in_view_of"`
}

// NodeView is one reporting node's final membership view.
type NodeView struct {
	Node     int   `json:"node"`
	ViewID   int   `json:"view_id"`
	Excluded []int `json:"excluded,omitempty"`
}

// Result is the orchestrator's verdict on one run.
type Result struct {
	Name           string `json:"name"`
	N              int    `json:"n"`
	Topology       string `json:"topology"`
	IntervalMs     int    `json:"interval_ms"`
	SamplePeriodMs int    `json:"sample_period_ms"`
	Fanout         int    `json:"fanout,omitempty"`
	Estimator      string `json:"estimator"`
	ElapsedMs      int64  `json:"elapsed_ms"`

	// PlanDigest is the sha256 identity of the spec that produced this
	// run — the rerun/checkpoint key cmd/fdorch matches on.
	PlanDigest string `json:"plan_digest,omitempty"`

	// Reports is how many of the Expected surviving nodes reported.
	Reports  int `json:"reports"`
	Expected int `json:"expected"`

	// MaxDistinctDestinations is the largest per-node heartbeat
	// fan-out observed; OverlayDegree is the overlay's max degree —
	// the O(log n) bound the gossip layer is accountable to.
	MaxDistinctDestinations int `json:"max_distinct_destinations"`
	OverlayDegree           int `json:"overlay_degree"`

	// False-suspicion aggregate over clean targets (never killed,
	// never paused).
	FalseSuspicionMistakes int     `json:"false_suspicion_mistakes"`
	MinQueryAccuracy       float64 `json:"min_query_accuracy"`

	// FramesSent/FramesDropped total the fault hooks' per-link tallies
	// across all reporting nodes (zero when the plan never enabled the
	// loss axes).
	FramesSent    uint64 `json:"frames_sent,omitempty"`
	FramesDropped uint64 `json:"frames_dropped,omitempty"`

	Kills  []KillReport  `json:"kills,omitempty"`
	Pauses []PauseReport `json:"pauses,omitempty"`
	Joins  []JoinReport  `json:"joins,omitempty"`
	Views  []NodeView    `json:"views,omitempty"`

	// Failures are violated assertions (bound_ms) and collection
	// gaps; empty means the run passed.
	Failures []string `json:"failures,omitempty"`

	Pairs []PairMetric `json:"pairs,omitempty"`

	// NodeReports carries the raw per-node reports when the run was
	// asked to collect fault decisions — the determinism audit needs
	// the verdict prefixes, not just the folded metrics.
	NodeReports map[int]*NodeReport `json:"-"`
}

// nodeState is the orchestrator's book-keeping for one node.
type nodeState struct {
	id     int
	handle NodeHandle
	conn   net.Conn
	addr   string

	killed     bool
	killedAt   time.Time
	paused     bool
	pausedEver bool
}

// inboundMsg is one post-hello control frame (or read error) from a
// node's control connection.
type inboundMsg struct {
	id  int
	msg ctlMsg
	err error
}

// helloMsg is the first frame of a freshly connected node.
type helloMsg struct {
	conn net.Conn
	r    *bufio.Reader
	msg  ctlMsg
	err  error
}

// Run executes one live-cluster scenario end to end: assemble the
// cluster (minus the plan's mid-run joiners), wire the overlay,
// interpret the fault plan, collect reports, fold metrics. The
// context is the hard deadline — on cancellation everything spawned
// is reclaimed and an error returned.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	rs, err := resolveRun(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Spawner == nil {
		return nil, fmt.Errorf("cluster: orchestrator needs a spawner")
	}
	helloTimeout := cfg.HelloTimeout
	if helloTimeout <= 0 {
		helloTimeout = 60 * time.Second
	}
	collectTimeout := cfg.CollectTimeout
	if collectTimeout <= 0 {
		collectTimeout = 30 * time.Second
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	// Overlay first: if the topology is unbuildable there is nothing
	// to spawn.
	edges, err := rs.topo.Edges(rs.n)
	if err != nil {
		return nil, err
	}
	neighbors := make(map[int][]int, rs.n)
	for _, e := range edges {
		a, b := int(e.A), int(e.B)
		neighbors[a] = append(neighbors[a], b)
		neighbors[b] = append(neighbors[b], a)
	}
	degree := 0
	for _, ns := range neighbors {
		sort.Ints(ns)
		if len(ns) > degree {
			degree = len(ns)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: control listener: %w", err)
	}
	defer func() { _ = ln.Close() }()

	hellos := make(chan helloMsg, rs.n)
	inbound := make(chan inboundMsg, 4*rs.n)
	readers := make(map[int]*bufio.Reader, rs.n)
	go acceptLoop(ln, hellos, helloTimeout)

	states := make(map[int]*nodeState, rs.n)
	defer func() {
		for _, st := range states {
			if st.conn != nil {
				_ = st.conn.Close()
			}
			if st.handle != nil {
				st.handle.Shutdown()
			}
		}
	}()

	joins := rs.joins()
	needHook := rs.needsFaultHook()
	// The loss rates in effect at a node's spawn instant ride in its
	// NodeConfig: instant-0 rates for the initial fleet, the current
	// rates for joiners. A rate change over the control channel lands at
	// a wall-clock-dependent frame index, so spawn-time preloading is
	// what keeps fully seeded runs reproducible frame-by-frame.
	curDrop, curDelay := 0, int64(0)
	if rs.plan != nil {
		for _, a := range rs.plan.Actions {
			if a.At != 0 {
				continue
			}
			switch a.Kind {
			case scenario.ActDrop:
				curDrop = a.Pct
			case scenario.ActDelay:
				curDelay = a.Bound
			}
		}
	}
	nodeCfg := func(id int) NodeConfig {
		nc := NodeConfig{
			ID:              id,
			N:               rs.n,
			ControlAddr:     ln.Addr().String(),
			IntervalMs:      rs.live.IntervalMs,
			SamplePeriodMs:  rs.live.SamplePeriodMs,
			Fanout:          rs.live.Fanout,
			Estimator:       rs.live.Estimator,
			Seed:            cfg.Seed + int64(id),
			RecordDecisions: cfg.CollectFaultDecisions,
		}
		if needHook {
			nc.FaultSeed = faultSeedFor(cfg.Seed, id)
			nc.DropPct = curDrop
			nc.DelayMaxMs = curDelay
		}
		return nc
	}
	spawn := func(id int) error {
		h, err := cfg.Spawner.Spawn(nodeCfg(id))
		if err != nil {
			return fmt.Errorf("cluster: spawn node %d: %w", id, err)
		}
		states[id] = &nodeState{id: id, handle: h}
		return nil
	}
	// deferredFrom lists the joiners a node starting at plan instant
	// `at` has not yet seen: the gossip layer holds their estimators
	// (and any suspicion of them) until their counters appear.
	deferredFrom := func(self int, at int64) []int {
		var out []int
		for j, jt := range joins {
			if j != self && jt >= at {
				out = append(out, j)
			}
		}
		sort.Ints(out)
		return out
	}
	// sendTopology wires node id: addresses of its already-running
	// overlay neighbors, plus its deferred set.
	sendTopology := func(id int, startAt int64) error {
		st := states[id]
		peers := make(map[int]string, len(neighbors[id]))
		var gossipPeers []int
		for _, nb := range neighbors[id] {
			nst := states[nb]
			if nst == nil || nst.addr == "" {
				continue // a later joiner: adopted via ctlJoin at its join
			}
			peers[nb] = nst.addr
			gossipPeers = append(gossipPeers, nb)
		}
		msg := ctlMsg{Kind: ctlTopology, Peers: peers, GossipPeers: gossipPeers, Deferred: deferredFrom(id, startAt)}
		if err := transport.WriteJSON(st.conn, msg); err != nil {
			return fmt.Errorf("cluster: send topology to node %d: %w", id, err)
		}
		return nil
	}
	// awaitHellos consumes hello frames until every id in want has
	// connected.
	awaitHellos := func(want map[int]bool) error {
		deadline := time.NewTimer(helloTimeout)
		defer deadline.Stop()
		for remaining := len(want); remaining > 0; {
			select {
			case h := <-hellos:
				if h.err != nil {
					return fmt.Errorf("cluster: hello: %w", h.err)
				}
				st := states[h.msg.ID]
				if st == nil || h.msg.Kind != ctlHello || !want[h.msg.ID] {
					_ = h.conn.Close()
					return fmt.Errorf("cluster: bad hello (kind %q, id %d)", h.msg.Kind, h.msg.ID)
				}
				if st.conn != nil {
					_ = h.conn.Close()
					return fmt.Errorf("cluster: duplicate hello from node %d", h.msg.ID)
				}
				st.conn = h.conn
				st.addr = h.msg.Addr
				readers[st.id] = h.r
				remaining--
			case <-deadline.C:
				return fmt.Errorf("cluster: only %d/%d nodes said hello within %v", countConnected(states), rs.n, helloTimeout)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}

	initial := make([]int, 0, rs.n)
	for id := 1; id <= rs.n; id++ {
		if _, joiner := joins[id]; !joiner {
			initial = append(initial, id)
		}
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("cluster: every node is a mid-run joiner; nothing to bootstrap")
	}

	logf("spawning %d/%d nodes (%d join mid-run; control %s)", len(initial), rs.n, rs.n-len(initial), ln.Addr())
	wantInitial := make(map[int]bool, len(initial))
	for _, id := range initial {
		if err := spawn(id); err != nil {
			return nil, err
		}
		wantInitial[id] = true
	}

	// Assemble: every initial node must say hello before the overlay
	// is wired.
	if err := awaitHellos(wantInitial); err != nil {
		return nil, err
	}
	logf("all %d initial nodes up; wiring %s overlay (max degree %d)", len(initial), rs.topo.Kind, degree)

	// Wire the overlay and start the per-node control readers.
	for _, id := range initial {
		if err := sendTopology(id, 0); err != nil {
			return nil, err
		}
		go readLoop(id, readers[id], inbound)
	}

	if err := sleepCtx(ctx, time.Duration(rs.live.WarmupMs)*time.Millisecond); err != nil {
		return nil, err
	}

	// The plan runs against t0 = end of warmup; action instants are
	// milliseconds after it.
	t0 := time.Now()
	it := &interp{
		states:    states,
		neighbors: neighbors,
		readers:   readers,
		inbound:   inbound,
		spawn:     spawn,
		sendTopo:  sendTopology,
		await:     awaitHellos,
		joined:    map[int]time.Time{},
		cuts:      map[[2]int]bool{},
		curDrop:   &curDrop,
		curDelay:  &curDelay,
		logf:      logf,
	}
	if rs.plan != nil {
		for _, a := range rs.plan.Actions {
			if err := sleepCtx(ctx, time.Until(t0.Add(time.Duration(a.At)*time.Millisecond))); err != nil {
				return nil, err
			}
			if err := it.exec(a); err != nil {
				return nil, err
			}
		}
	}

	if err := sleepCtx(ctx, time.Duration(rs.live.SettleMs)*time.Millisecond); err != nil {
		return nil, err
	}
	// A node still paused at collection cannot report; resume it.
	// (Spec validation forbids this whenever bound_ms asserts.)
	for _, st := range states {
		if st.paused && !st.killed {
			logf("node %d still paused at collection; resuming", st.id)
			_ = st.handle.Resume()
			st.paused = false
		}
	}

	// Collect: every survivor reports or the run fails — fast.
	var failures []string
	expected := map[int]bool{}
	for id, st := range states {
		if st.killed {
			continue
		}
		if err := transport.WriteJSON(st.conn, ctlMsg{Kind: ctlCollect}); err != nil {
			failures = append(failures, fmt.Sprintf("node %d: collect request failed: %v", id, err))
			continue
		}
		expected[id] = true
	}
	reports := make(map[int]*NodeReport, len(expected))
	collectDeadline := time.NewTimer(collectTimeout)
	defer collectDeadline.Stop()
collect:
	for len(reports) < len(expected) {
		select {
		case in := <-inbound:
			if in.err != nil {
				if st := states[in.id]; st != nil && !st.killed && expected[in.id] && reports[in.id] == nil {
					failures = append(failures, fmt.Sprintf("node %d: control channel died before reporting: %v", in.id, in.err))
					delete(expected, in.id)
				}
				continue
			}
			if in.msg.Kind == ctlReport && in.msg.Report != nil && expected[in.id] {
				reports[in.id] = in.msg.Report
			}
		case <-collectDeadline.C:
			for id := range expected {
				if reports[id] == nil {
					failures = append(failures, fmt.Sprintf("node %d: no report within %v", id, collectTimeout))
				}
			}
			break collect
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	logf("collected %d/%d reports", len(reports), len(expected))

	// Stop the survivors; the deferred cleanup reclaims everything.
	for _, st := range states {
		if !st.killed && st.conn != nil {
			_ = transport.WriteJSON(st.conn, ctlMsg{Kind: ctlStop})
		}
	}

	res := foldResult(rs, cfg, states, reports, it.joined, failures, degree, time.Since(t0))
	interval := time.Duration(rs.live.IntervalMs) * time.Millisecond
	res.Estimator = EstimatorFactory(rs.live.Estimator, interval)().Name()
	res.PlanDigest = rs.digest
	if cfg.CollectFaultDecisions {
		res.NodeReports = reports
	}
	return res, nil
}

// interp is the fault-plan interpreter's mutable state: the live
// lowering of the IR, verb by verb.
type interp struct {
	states    map[int]*nodeState
	neighbors map[int][]int
	readers   map[int]*bufio.Reader
	inbound   chan inboundMsg
	spawn     func(id int) error
	sendTopo  func(id int, startAt int64) error
	await     func(want map[int]bool) error
	joined    map[int]time.Time
	cuts      map[[2]int]bool
	curDrop   *int // shared with nodeCfg: joiners preload the current rates
	curDelay  *int64
	logf      func(string, ...any)
}

// broadcast sends one control frame to every running node.
func (it *interp) broadcast(msg ctlMsg) {
	for _, st := range it.states {
		if st.killed || st.conn == nil {
			continue
		}
		// A write to a freshly dead node's half-open socket can succeed
		// or fail; either way the node is gone — not fatal.
		_ = transport.WriteJSON(st.conn, msg)
	}
}

// exec applies one plan action.
func (it *interp) exec(a scenario.PlanAction) error {
	switch a.Kind {
	case scenario.ActKill:
		for _, id := range a.Nodes {
			st := it.states[id]
			if err := st.handle.Kill(); err != nil {
				return fmt.Errorf("cluster: kill node %d: %w", id, err)
			}
			st.killed = true
			st.killedAt = time.Now()
			it.logf("t+%dms: killed node %d", a.At, id)
		}
	case scenario.ActLeave:
		// A leave is a clean departure: the node exits on ctlStop (no
		// report), falling back to a kill if the stop cannot be sent.
		for _, id := range a.Nodes {
			st := it.states[id]
			if st.conn == nil || transport.WriteJSON(st.conn, ctlMsg{Kind: ctlStop}) != nil {
				_ = st.handle.Kill()
			}
			st.killed = true
			st.killedAt = time.Now()
			it.logf("t+%dms: node %d left", a.At, id)
		}
	case scenario.ActPause:
		for _, id := range a.Nodes {
			st := it.states[id]
			if err := st.handle.Pause(); err != nil {
				return fmt.Errorf("cluster: pause node %d: %w", id, err)
			}
			st.paused = true
			st.pausedEver = true
			it.logf("t+%dms: paused node %d", a.At, id)
		}
	case scenario.ActResume:
		for _, id := range a.Nodes {
			st := it.states[id]
			if err := st.handle.Resume(); err != nil {
				return fmt.Errorf("cluster: resume node %d: %w", id, err)
			}
			st.paused = false
			it.logf("t+%dms: resumed node %d", a.At, id)
		}
	case scenario.ActCut, scenario.ActHeal:
		cut := a.Kind == scenario.ActCut
		edges := a.Edges
		if !cut && edges == nil {
			// Bare heal: undo every active cut.
			for e := range it.cuts {
				edges = append(edges, e)
			}
		}
		targets := map[int][]int{}
		for _, e := range edges {
			x, y := e[0], e[1]
			if x > y {
				x, y = y, x
			}
			targets[x] = append(targets[x], y)
			targets[y] = append(targets[y], x)
			if cut {
				it.cuts[[2]int{x, y}] = true
			} else {
				delete(it.cuts, [2]int{x, y})
			}
		}
		kind := ctlCut
		if !cut {
			kind = ctlHeal
		}
		for id, ts := range targets {
			st := it.states[id]
			if st == nil || st.killed || st.conn == nil {
				continue
			}
			sort.Ints(ts)
			_ = transport.WriteJSON(st.conn, ctlMsg{Kind: kind, Targets: ts})
		}
		it.logf("t+%dms: %s %d edge(s)", a.At, a.Kind, len(edges))
	case scenario.ActDrop:
		*it.curDrop = a.Pct
		it.broadcast(ctlMsg{Kind: ctlDrop, Pct: a.Pct})
		it.logf("t+%dms: drop rate → %d%%", a.At, a.Pct)
	case scenario.ActDelay:
		*it.curDelay = a.Bound
		it.broadcast(ctlMsg{Kind: ctlDelay, BoundMs: a.Bound})
		it.logf("t+%dms: delay bound → %dms", a.At, a.Bound)
	case scenario.ActJoin:
		return it.join(a)
	}
	return nil
}

// join brings one batch of mid-run joiners up: spawn, hello, wire,
// replay the current loss rates, and introduce each joiner to its
// running overlay neighbors.
func (it *interp) join(a scenario.PlanAction) error {
	want := make(map[int]bool, len(a.Nodes))
	for _, id := range a.Nodes {
		if err := it.spawn(id); err != nil {
			return err
		}
		want[id] = true
	}
	if err := it.await(want); err != nil {
		return err
	}
	for _, id := range a.Nodes {
		if err := it.sendTopo(id, a.At); err != nil {
			return err
		}
		// No rate replay needed: the joiner's NodeConfig preloaded the
		// current drop/delay rates at spawn.
		go readLoop(id, it.readers[id], it.inbound)
		it.joined[id] = time.Now()
	}
	// Overlay re-resolution: each running neighbor adopts the joiner —
	// address registered, gossip peer added.
	for _, id := range a.Nodes {
		addr := it.states[id].addr
		for _, nb := range it.neighbors[id] {
			nst := it.states[nb]
			if nst == nil || nst.killed || nst.conn == nil || nb == id {
				continue
			}
			_ = transport.WriteJSON(nst.conn, ctlMsg{Kind: ctlJoin, Joiner: id, JoinerAddr: addr})
		}
		it.logf("t+%dms: node %d joined (%s)", a.At, id, addr)
	}
	return nil
}

// foldResult folds the collected flip reports through qos.FoldFlips —
// the orchestrator alone knows the ground-truth kill and join
// instants — and checks the bound_ms assertions. A joiner's fold
// window is clipped to its join epoch on both sides: as an observer
// its report starts at its own birth, and as a target the window
// opens at its join instant.
func foldResult(rs runSpec, cfg Config, states map[int]*nodeState, reports map[int]*NodeReport, joinedWall map[int]time.Time, failures []string, degree int, elapsed time.Duration) *Result {
	res := &Result{
		Name:             rs.name,
		N:                rs.n,
		Topology:         rs.topo.Kind,
		IntervalMs:       rs.live.IntervalMs,
		SamplePeriodMs:   rs.live.SamplePeriodMs,
		Fanout:           rs.live.Fanout,
		ElapsedMs:        elapsed.Milliseconds(),
		Reports:          len(reports),
		OverlayDegree:    degree,
		MinQueryAccuracy: 1,
		Failures:         failures,
	}
	for _, st := range states {
		if !st.killed {
			res.Expected++
		}
	}

	period := time.Duration(rs.live.SamplePeriodMs) * time.Millisecond
	bound := time.Duration(rs.live.BoundMs) * time.Millisecond
	type killAgg struct {
		observers, detected int
		sum, max            time.Duration
	}
	killAggs := map[int]*killAgg{}
	pauseAggs := map[int][]int{}
	type joinAgg struct {
		observers, known, inView int
	}
	joinAggs := map[int]*joinAgg{}
	for id := range joinedWall {
		joinAggs[id] = &joinAgg{}
	}

	observers := make([]int, 0, len(reports))
	for id := range reports {
		observers = append(observers, id)
	}
	sort.Ints(observers)
	for _, o := range observers {
		rep := reports[o]
		if rep.Destinations > res.MaxDistinctDestinations {
			res.MaxDistinctDestinations = rep.Destinations
		}
		res.Views = append(res.Views, NodeView{Node: o, ViewID: rep.ViewID, Excluded: rep.Excluded})
		if rep.TransitionDrops > 0 {
			failures = append(failures, fmt.Sprintf("node %d dropped %d verdict transitions: its flips have holes", o, rep.TransitionDrops))
		}
		for _, fs := range rep.FaultStats {
			res.FramesSent += fs.Frames
			res.FramesDropped += fs.Drops
		}
		known := map[int]bool{}
		for _, id := range rep.Known {
			known[id] = true
		}
		inView := map[int]bool{}
		for _, id := range rep.Members {
			inView[id] = true
		}
		start := time.Unix(0, rep.StartUnixNano)
		end := time.Unix(0, rep.EndUnixNano)
		for q := 1; q <= rs.n; q++ {
			if q == o {
				continue
			}
			st := states[q]
			if st == nil {
				continue // a joiner the run never reached
			}
			if agg := joinAggs[q]; agg != nil {
				agg.observers++
				if known[q] {
					agg.known++
				}
				if inView[q] {
					agg.inView++
				}
			}
			// A joiner target's fold window opens at its join instant:
			// verdicts about a node that did not exist yet are not
			// accuracy evidence.
			qStart := start
			if jw, ok := joinedWall[q]; ok && jw.After(qStart) {
				qStart = jw
			}
			if !qStart.Before(end) {
				continue
			}
			flips := rep.Flips[q]
			var crashAt time.Time
			if st.killed && st.killedAt.After(qStart) && st.killedAt.Before(end) {
				crashAt = st.killedAt
			}
			m := qos.FoldFlips(qStart, end, crashAt, flips, period)
			finalSuspected := len(flips) > 0 && flips[len(flips)-1].Suspected

			if st.killed {
				if crashAt.IsZero() {
					continue // the target predeceased this observer's window
				}
				agg := killAggs[q]
				if agg == nil {
					agg = &killAgg{}
					killAggs[q] = agg
				}
				agg.observers++
				if m.Detected {
					agg.detected++
					agg.sum += m.DetectionTime
					if m.DetectionTime > agg.max {
						agg.max = m.DetectionTime
					}
				}
				if rs.live.BoundMs > 0 && (!m.Detected || m.DetectionTime > bound) {
					failures = append(failures, fmt.Sprintf(
						"node %d did not suspect departed node %d within %v (detected=%v T_D=%v)",
						o, q, bound, m.Detected, m.DetectionTime))
				}
			} else if st.pausedEver {
				if finalSuspected {
					pauseAggs[q] = append(pauseAggs[q], o)
					if rs.live.BoundMs > 0 {
						failures = append(failures, fmt.Sprintf(
							"node %d still suspects resumed node %d at collection", o, q))
					}
				} else if pauseAggs[q] == nil {
					pauseAggs[q] = []int{}
				}
			} else {
				res.FalseSuspicionMistakes += m.Mistakes
				if m.QueryAccuracy < res.MinQueryAccuracy {
					res.MinQueryAccuracy = m.QueryAccuracy
				}
			}

			if cfg.IncludePairs {
				res.Pairs = append(res.Pairs, PairMetric{
					Observer:           o,
					Target:             q,
					Detected:           m.Detected,
					DetectionMs:        float64(m.DetectionTime) / float64(time.Millisecond),
					Mistakes:           m.Mistakes,
					MistakeRatePerSec:  m.MistakeRate,
					AvgMistakeMs:       float64(m.AvgMistakeDuration) / float64(time.Millisecond),
					QueryAccuracy:      m.QueryAccuracy,
					SuspectedAtCollect: finalSuspected,
				})
			}
		}
	}

	killIDs := make([]int, 0, len(killAggs))
	for q := range killAggs {
		killIDs = append(killIDs, q)
	}
	sort.Ints(killIDs)
	for _, q := range killIDs {
		agg := killAggs[q]
		kr := KillReport{
			Target:    q,
			AtMs:      departAtMs(rs.plan, q),
			Observers: agg.observers,
			Detected:  agg.detected,
		}
		if agg.detected > 0 {
			kr.MeanDetectionMs = float64(agg.sum) / float64(agg.detected) / float64(time.Millisecond)
			kr.MaxDetectionMs = float64(agg.max) / float64(time.Millisecond)
		}
		res.Kills = append(res.Kills, kr)
	}
	pauseIDs := make([]int, 0, len(pauseAggs))
	for q := range pauseAggs {
		pauseIDs = append(pauseIDs, q)
	}
	sort.Ints(pauseIDs)
	for _, q := range pauseIDs {
		res.Pauses = append(res.Pauses, PauseReport{Target: q, SuspectedAtEndBy: pauseAggs[q]})
	}
	joinIDs := make([]int, 0, len(joinAggs))
	for q := range joinAggs {
		joinIDs = append(joinIDs, q)
	}
	sort.Ints(joinIDs)
	for _, q := range joinIDs {
		agg := joinAggs[q]
		jr := JoinReport{
			Target:    q,
			AtMs:      joinAtMs(rs.plan, q),
			Observers: agg.observers,
			KnownBy:   agg.known,
			InViewOf:  agg.inView,
		}
		if rs.live.BoundMs > 0 {
			if jr.KnownBy < jr.Observers {
				failures = append(failures, fmt.Sprintf(
					"joiner %d absent from the gossip state of %d/%d survivors", q, jr.Observers-jr.KnownBy, jr.Observers))
			}
			if jr.InViewOf < jr.Observers {
				failures = append(failures, fmt.Sprintf(
					"joiner %d absent from the membership view of %d/%d survivors", q, jr.Observers-jr.InViewOf, jr.Observers))
			}
		}
		res.Joins = append(res.Joins, jr)
	}
	if len(reports) == 0 {
		res.MinQueryAccuracy = 0 // nothing observed, nothing vouched for
	}
	res.Failures = failures
	return res
}

// departAtMs finds the plan instant node q was killed or left.
func departAtMs(plan *scenario.FaultPlan, q int) int64 {
	if plan == nil {
		return 0
	}
	if at, ok := plan.Kills[q]; ok {
		return at
	}
	return plan.Leaves[q]
}

// joinAtMs finds the plan instant node q joined.
func joinAtMs(plan *scenario.FaultPlan, q int) int64 {
	if plan == nil {
		return 0
	}
	return plan.Joins[q]
}

// acceptLoop accepts node control connections and reads each one's
// hello under a deadline.
func acceptLoop(ln net.Listener, hellos chan<- helloMsg, timeout time.Duration) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed: assembly is over
		}
		go func(conn net.Conn) {
			_ = conn.SetReadDeadline(time.Now().Add(timeout))
			r := bufio.NewReader(conn)
			var m ctlMsg
			if err := transport.ReadJSON(r, &m); err != nil {
				_ = conn.Close()
				hellos <- helloMsg{err: err}
				return
			}
			_ = conn.SetReadDeadline(time.Time{})
			hellos <- helloMsg{conn: conn, r: r, msg: m}
		}(conn)
	}
}

// readLoop relays one node's post-hello control frames.
func readLoop(id int, r *bufio.Reader, inbound chan<- inboundMsg) {
	for {
		var m ctlMsg
		if err := transport.ReadJSON(r, &m); err != nil {
			inbound <- inboundMsg{id: id, err: err}
			return
		}
		inbound <- inboundMsg{id: id, msg: m}
	}
}

// countConnected counts nodes whose hello arrived.
func countConnected(states map[int]*nodeState) int {
	n := 0
	for _, st := range states {
		if st.conn != nil {
			n++
		}
	}
	return n
}

// sleepCtx sleeps for d (no-op when non-positive) unless the context
// expires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
