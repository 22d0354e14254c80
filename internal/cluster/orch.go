package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"time"

	"realisticfd/internal/qos"
	"realisticfd/internal/scenario"
	"realisticfd/internal/transport"
)

// Config parameterizes one orchestrated run.
type Config struct {
	// Scenario is a parsed /v3 spec of the busy protocol: its fault
	// plan, crashes, topology and live parameters define the run.
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
	// CollectTimeout bounds report collection (default 30s): a wedged
	// node fails the run instead of hanging it.
	CollectTimeout time.Duration
	// Log receives progress lines; nil is silent.
	Log io.Writer
}

// helloTimeout bounds cluster assembly and each join batch's hellos.
const helloTimeout = 60 * time.Second

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

// nodeState is the orchestrator's book-keeping for one node, and the
// ground truth the fold reads: whether and when it departed, and
// whether it was ever paused.
type nodeState struct {
	id     int
	handle NodeHandle
	conn   net.Conn
	r      *bufio.Reader // conn's reader, past the hello
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

// Run executes one live-cluster scenario end to end, in four phases:
// rendezvous assembles the cluster (minus the plan's mid-run joiners)
// and wires the overlay, interpret lowers the fault plan onto it,
// collect gathers the survivors' reports, and fold turns them into
// metrics against the recorded ground truth. The context is the hard
// deadline — on cancellation everything spawned is reclaimed and an
// error returned.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.rendezvous(ctx); err != nil {
		return nil, err
	}
	if err := r.interpret(ctx); err != nil {
		return nil, err
	}
	reports, failures, err := r.collect(ctx)
	if err != nil {
		return nil, err
	}
	return r.fold(reports, failures, time.Since(r.t0)), nil
}

// run is one orchestrated run: the spec it lowers, the control plane it
// drives, and the ground truth interpret records for the fold.
type run struct {
	cfg    Config
	spec   scenario.Spec
	live   scenario.LiveParams
	plan   *scenario.FaultPlan // never nil: a spec without a plan compiles to an empty one
	digest string

	neighbors map[int][]int // overlay adjacency, sorted
	degree    int

	ln      net.Listener
	hellos  chan helloMsg
	inbound chan inboundMsg
	// states is indexed by node ID (slot 0 unused), nil until spawned,
	// so every walk over the nodes goes in ID order.
	states []*nodeState

	// needHook is whether the plan ever touches the loss axes: only then
	// do nodes install a transport.FaultHook, keeping loss-free runs on
	// the plain send path. curDrop and curDelay are the loss rates in
	// effect now; a node preloads them at spawn (see nodeConfig).
	needHook bool
	curDrop  int
	curDelay int64

	t0     time.Time // end of warmup: plan instants are milliseconds after it
	joined map[int]time.Time
}

// CheckProtocol refuses a spec whose protocol the live cluster cannot
// run, naming its kind. A live node runs gossip detection and the
// membership feed, which is the busy protocol, and hosts no other
// automaton; the spec's oracle and stop are simulator-only fields.
func CheckProtocol(s *scenario.Spec) error {
	if k := s.Protocol.Kind; k != scenario.ProtocolBusy {
		return fmt.Errorf("cluster: protocol %q runs in the simulator only; the live cluster runs %q", k, scenario.ProtocolBusy)
	}
	return nil
}

// newRun checks and compiles the Config's spec, wires the overlay it
// carries and opens the control listener. Nothing is spawned yet.
func newRun(cfg Config) (*run, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("cluster: config has no scenario")
	}
	if err := CheckProtocol(cfg.Scenario); err != nil {
		return nil, err
	}
	s := *cfg.Scenario
	plan, err := s.CompilePlan()
	if err != nil {
		return nil, err
	}
	digest, err := s.ConfigDigest()
	if err != nil {
		return nil, err
	}
	if cfg.Spawner == nil {
		return nil, fmt.Errorf("cluster: orchestrator needs a spawner")
	}
	var live scenario.LiveParams
	if s.Live != nil {
		live = *s.Live
	}
	live.Normalize()

	r := &run{
		cfg: cfg, spec: s, live: live, plan: plan, digest: digest,
		neighbors: make(map[int][]int, s.N),
		hellos:    make(chan helloMsg, s.N),
		inbound:   make(chan inboundMsg, 4*s.N),
		states:    make([]*nodeState, s.N+1),
		joined:    map[int]time.Time{},
	}
	// The overlay is sorted, so each neighbour list comes out sorted.
	for _, e := range plan.Overlay {
		a, b := int(e.A), int(e.B)
		r.neighbors[a] = append(r.neighbors[a], b)
		r.neighbors[b] = append(r.neighbors[b], a)
		r.degree = max(r.degree, len(r.neighbors[a]), len(r.neighbors[b]))
	}
	// The initial fleet preloads the instant-0 rates. A rate change over
	// the control channel lands at a wall-clock-dependent frame index, so
	// spawn-time preloading is what keeps fully seeded runs reproducible
	// frame-by-frame.
	for _, a := range plan.Actions {
		switch a.Kind {
		case scenario.ActDrop:
			r.needHook = true
			if a.At == 0 {
				r.curDrop = a.Pct
			}
		case scenario.ActDelay:
			r.needHook = true
			if a.At == 0 {
				r.curDelay = a.Bound
			}
		}
	}

	r.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: control listener: %w", err)
	}
	go acceptLoop(r.ln, r.hellos)
	return r, nil
}

// close reclaims everything the run spawned, then the listener.
func (r *run) close() {
	for _, st := range r.states {
		if st == nil {
			continue
		}
		if st.conn != nil {
			_ = st.conn.Close()
		}
		if st.handle != nil {
			st.handle.Shutdown()
		}
	}
	_ = r.ln.Close()
}

func (r *run) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, format+"\n", args...)
	}
}

// rendezvous brings up every node that is not a mid-run joiner.
func (r *run) rendezvous(ctx context.Context) error {
	var initial []int
	for id := 1; id <= r.spec.N; id++ {
		if !r.plan.Joiner(id) {
			initial = append(initial, id)
		}
	}
	if len(initial) == 0 {
		return fmt.Errorf("cluster: every node is a mid-run joiner; nothing to bootstrap")
	}
	r.logf("spawning %d/%d nodes (%d join mid-run; control %s)", len(initial), r.spec.N, r.spec.N-len(initial), r.ln.Addr())
	if err := r.start(ctx, initial, 0); err != nil {
		return err
	}
	r.logf("all %d initial nodes up; %s overlay wired (max degree %d)", len(initial), r.spec.Topology.Kind, r.degree)
	return nil
}

// start brings one batch of nodes up — the initial fleet at plan
// instant 0, or a join batch at its instant: spawn each, await every
// hello, then wire each (topology frame) and start its control reader.
// A joiner is stamped joined right after its topology frame.
func (r *run) start(ctx context.Context, ids []int, at int64) error {
	for _, id := range ids {
		h, err := r.cfg.Spawner.Spawn(r.nodeConfig(id))
		if err != nil {
			return fmt.Errorf("cluster: spawn node %d: %w", id, err)
		}
		r.states[id] = &nodeState{id: id, handle: h}
	}
	if err := r.awaitHellos(ctx, ids); err != nil {
		return err
	}
	for _, id := range ids {
		if err := r.sendTopology(id, at); err != nil {
			return err
		}
		go readLoop(id, r.states[id].r, r.inbound)
		if r.plan.Joiner(id) {
			r.joined[id] = time.Now()
		}
	}
	return nil
}

// nodeConfig is node id's NodeConfig. The loss rates in effect at its
// spawn instant ride in it: instant-0 rates for the initial fleet, the
// current rates for joiners.
func (r *run) nodeConfig(id int) NodeConfig {
	nc := NodeConfig{
		ID:              id,
		N:               r.spec.N,
		ControlAddr:     r.ln.Addr().String(),
		IntervalMs:      r.live.IntervalMs,
		SamplePeriodMs:  r.live.SamplePeriodMs,
		Fanout:          r.live.Fanout,
		Estimator:       r.live.Estimator,
		Seed:            r.cfg.Seed + int64(id),
		RecordDecisions: r.cfg.CollectFaultDecisions,
	}
	if r.needHook {
		nc.FaultSeed = faultSeedFor(r.cfg.Seed, id)
		nc.DropPct = r.curDrop
		nc.DelayMaxMs = r.curDelay
	}
	return nc
}

// awaitHellos consumes hello frames until every node of ids has
// connected.
func (r *run) awaitHellos(ctx context.Context, ids []int) error {
	want := make(map[int]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	deadline := time.NewTimer(helloTimeout)
	defer deadline.Stop()
	for remaining := len(want); remaining > 0; {
		select {
		case h := <-r.hellos:
			if h.err != nil {
				return fmt.Errorf("cluster: hello: %w", h.err)
			}
			id := h.msg.ID
			if id < 1 || id > r.spec.N || r.states[id] == nil || h.msg.Kind != ctlHello || !want[id] {
				_ = h.conn.Close()
				return fmt.Errorf("cluster: bad hello (kind %q, id %d)", h.msg.Kind, id)
			}
			st := r.states[id]
			if st.conn != nil {
				_ = h.conn.Close()
				return fmt.Errorf("cluster: duplicate hello from node %d", id)
			}
			st.conn, st.r, st.addr = h.conn, h.r, h.msg.Addr
			remaining--
		case <-deadline.C:
			return fmt.Errorf("cluster: only %d/%d nodes said hello within %v", countConnected(r.states), r.spec.N, helloTimeout)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// sendTopology wires node id, starting at plan instant at: the
// addresses of its already-running overlay neighbors, plus its deferred
// set — the joiners it has not yet seen, whose estimators (and any
// suspicion of them) the gossip layer holds until their counters
// appear.
func (r *run) sendTopology(id int, at int64) error {
	peers := make(map[int]string, len(r.neighbors[id]))
	var gossipPeers []int
	for _, nb := range r.neighbors[id] {
		nst := r.states[nb]
		if nst == nil || nst.addr == "" {
			continue // a later joiner: adopted via ctlJoin at its join
		}
		peers[nb] = nst.addr
		gossipPeers = append(gossipPeers, nb)
	}
	var deferred []int
	for j, jt := range r.plan.Joins {
		if j != id && jt >= at {
			deferred = append(deferred, j)
		}
	}
	slices.Sort(deferred)
	msg := ctlMsg{Kind: ctlTopology, Peers: peers, GossipPeers: gossipPeers, Deferred: deferred}
	if err := transport.WriteJSON(r.states[id].conn, msg); err != nil {
		return fmt.Errorf("cluster: send topology to node %d: %w", id, err)
	}
	return nil
}

// interpret waits out the warmup, lowers the fault plan onto the live
// cluster verb by verb, each action at its instant after t0 (the end of
// warmup), then waits out the settle window.
func (r *run) interpret(ctx context.Context) error {
	if err := sleepCtx(ctx, time.Duration(r.live.WarmupMs)*time.Millisecond); err != nil {
		return err
	}
	r.t0 = time.Now()
	for _, a := range r.plan.Actions {
		if err := sleepCtx(ctx, time.Until(r.t0.Add(time.Duration(a.At)*time.Millisecond))); err != nil {
			return err
		}
		if err := r.exec(ctx, a); err != nil {
			return err
		}
	}
	return sleepCtx(ctx, time.Duration(r.live.SettleMs)*time.Millisecond)
}

// broadcast sends one control frame to every running node.
func (r *run) broadcast(msg ctlMsg) {
	for _, st := range r.states {
		if st == nil || st.killed || st.conn == nil {
			continue
		}
		// A write to a freshly dead node's half-open socket can succeed
		// or fail; either way the node is gone — not fatal.
		_ = transport.WriteJSON(st.conn, msg)
	}
}

// exec applies one plan action.
func (r *run) exec(ctx context.Context, a scenario.PlanAction) error {
	switch a.Kind {
	case scenario.ActKill:
		for _, id := range a.Nodes {
			st := r.states[id]
			if err := st.handle.Kill(); err != nil {
				return fmt.Errorf("cluster: kill node %d: %w", id, err)
			}
			st.killed = true
			st.killedAt = time.Now()
			r.logf("t+%dms: killed node %d", a.At, id)
		}
	case scenario.ActLeave:
		// A leave is a clean departure: the node exits on ctlStop (no
		// report), falling back to a kill if the stop cannot be sent.
		for _, id := range a.Nodes {
			st := r.states[id]
			if st.conn == nil || transport.WriteJSON(st.conn, ctlMsg{Kind: ctlStop}) != nil {
				_ = st.handle.Kill()
			}
			st.killed = true
			st.killedAt = time.Now()
			r.logf("t+%dms: node %d left", a.At, id)
		}
	case scenario.ActPause:
		for _, id := range a.Nodes {
			st := r.states[id]
			if err := st.handle.Pause(); err != nil {
				return fmt.Errorf("cluster: pause node %d: %w", id, err)
			}
			st.paused = true
			st.pausedEver = true
			r.logf("t+%dms: paused node %d", a.At, id)
		}
	case scenario.ActResume:
		for _, id := range a.Nodes {
			st := r.states[id]
			if err := st.handle.Resume(); err != nil {
				return fmt.Errorf("cluster: resume node %d: %w", id, err)
			}
			st.paused = false
			r.logf("t+%dms: resumed node %d", a.At, id)
		}
	case scenario.ActCut, scenario.ActHeal:
		// The compiler resolved the edges: a heal names exactly the
		// severed edges it restores. Each endpoint gets one frame, in
		// node-ID order.
		targets := make([][]int, r.spec.N+1)
		for _, e := range a.Edges {
			targets[e[0]] = append(targets[e[0]], e[1])
			targets[e[1]] = append(targets[e[1]], e[0])
		}
		kind := ctlCut
		if a.Kind == scenario.ActHeal {
			kind = ctlHeal
		}
		for id, ts := range targets {
			st := r.states[id]
			if len(ts) == 0 || st == nil || st.killed || st.conn == nil {
				continue
			}
			slices.Sort(ts)
			_ = transport.WriteJSON(st.conn, ctlMsg{Kind: kind, Targets: ts})
		}
		r.logf("t+%dms: %s %d edge(s)", a.At, a.Kind, len(a.Edges))
	case scenario.ActDrop:
		r.curDrop = a.Pct
		r.broadcast(ctlMsg{Kind: ctlDrop, Pct: a.Pct})
		r.logf("t+%dms: drop rate → %d%%", a.At, a.Pct)
	case scenario.ActDelay:
		r.curDelay = a.Bound
		r.broadcast(ctlMsg{Kind: ctlDelay, BoundMs: a.Bound})
		r.logf("t+%dms: delay bound → %dms", a.At, a.Bound)
	case scenario.ActJoin:
		// No rate replay needed: a joiner's NodeConfig preloads the
		// current drop/delay rates at spawn.
		if err := r.start(ctx, a.Nodes, a.At); err != nil {
			return err
		}
		// Overlay re-resolution: each running neighbor adopts the joiner —
		// address registered, gossip peer added.
		for _, id := range a.Nodes {
			addr := r.states[id].addr
			for _, nb := range r.neighbors[id] {
				nst := r.states[nb]
				if nst == nil || nst.killed || nst.conn == nil || nb == id {
					continue
				}
				_ = transport.WriteJSON(nst.conn, ctlMsg{Kind: ctlJoin, Joiner: id, JoinerAddr: addr})
			}
			r.logf("t+%dms: node %d joined (%s)", a.At, id, addr)
		}
	}
	return nil
}

// collect asks every survivor for its report and stops it. The run
// fails fast rather than hang: a node that does not report within
// CollectTimeout (default 30s) is a failure, not a wait.
func (r *run) collect(ctx context.Context) (map[int]*NodeReport, []string, error) {
	// A node still paused at collection cannot report; resume it.
	// (Spec validation forbids this whenever bound_ms asserts.)
	for _, st := range r.states {
		if st != nil && st.paused && !st.killed {
			r.logf("node %d still paused at collection; resuming", st.id)
			_ = st.handle.Resume()
			st.paused = false
		}
	}
	var failures []string
	expected := map[int]bool{}
	for id := 1; id <= r.spec.N; id++ {
		st := r.states[id]
		if st == nil || st.killed {
			continue
		}
		if err := transport.WriteJSON(st.conn, ctlMsg{Kind: ctlCollect}); err != nil {
			failures = append(failures, fmt.Sprintf("node %d: collect request failed: %v", id, err))
			continue
		}
		expected[id] = true
	}
	timeout := r.cfg.CollectTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	reports := make(map[int]*NodeReport, len(expected))
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
wait:
	for len(reports) < len(expected) {
		select {
		case in := <-r.inbound:
			if in.err != nil {
				if st := r.states[in.id]; st != nil && !st.killed && expected[in.id] && reports[in.id] == nil {
					failures = append(failures, fmt.Sprintf("node %d: control channel died before reporting: %v", in.id, in.err))
					delete(expected, in.id)
				}
				continue
			}
			if in.msg.Kind == ctlReport && in.msg.Report != nil && expected[in.id] {
				reports[in.id] = in.msg.Report
			}
		case <-deadline.C:
			for id := 1; id <= r.spec.N; id++ {
				if expected[id] && reports[id] == nil {
					failures = append(failures, fmt.Sprintf("node %d: no report within %v", id, timeout))
				}
			}
			break wait
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	r.logf("collected %d/%d reports", len(reports), len(expected))

	// Stop the survivors; close reclaims everything.
	for _, st := range r.states {
		if st != nil && !st.killed && st.conn != nil {
			_ = transport.WriteJSON(st.conn, ctlMsg{Kind: ctlStop})
		}
	}
	return reports, failures, nil
}

// fold folds the collected flip reports through qos.FoldFlips against
// the ground truth interpret recorded — the kill, leave, pause and join
// instants only the orchestrator knows — and checks the bound_ms
// assertions. A joiner's fold window is clipped to its join epoch on
// both sides: as an observer its report starts at its own birth, and as
// a target the window opens at its join instant.
func (r *run) fold(reports map[int]*NodeReport, failures []string, elapsed time.Duration) *Result {
	interval := time.Duration(r.live.IntervalMs) * time.Millisecond
	res := &Result{
		Name:             r.spec.Name,
		N:                r.spec.N,
		Topology:         r.spec.Topology.Kind,
		IntervalMs:       r.live.IntervalMs,
		SamplePeriodMs:   r.live.SamplePeriodMs,
		Fanout:           r.live.Fanout,
		Estimator:        EstimatorFactory(r.live.Estimator, interval)().Name(),
		ElapsedMs:        elapsed.Milliseconds(),
		PlanDigest:       r.digest,
		Reports:          len(reports),
		OverlayDegree:    r.degree,
		MinQueryAccuracy: 1,
	}
	if r.cfg.CollectFaultDecisions {
		res.NodeReports = reports
	}
	for _, st := range r.states {
		if st != nil && !st.killed {
			res.Expected++
		}
	}

	period := time.Duration(r.live.SamplePeriodMs) * time.Millisecond
	bound := time.Duration(r.live.BoundMs) * time.Millisecond
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
	for id := range r.joined {
		joinAggs[id] = &joinAgg{}
	}

	for _, o := range slices.Sorted(maps.Keys(reports)) {
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
		start := time.Unix(0, rep.StartUnixNano)
		end := time.Unix(0, rep.EndUnixNano)
		for q := 1; q <= r.spec.N; q++ {
			if q == o {
				continue
			}
			st := r.states[q]
			if st == nil {
				continue // a joiner the run never reached
			}
			if agg := joinAggs[q]; agg != nil {
				agg.observers++
				if slices.Contains(rep.Known, q) {
					agg.known++
				}
				// A joiner that departed after its join has been adopted
				// by an observer that excluded it: the feed excludes
				// only members.
				if slices.Contains(rep.Members, q) || st.killed && slices.Contains(rep.Excluded, q) {
					agg.inView++
				}
			}
			// A joiner target's fold window opens at its join instant:
			// verdicts about a node that did not exist yet are not
			// accuracy evidence.
			qStart := start
			if jw, ok := r.joined[q]; ok && jw.After(qStart) {
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
					agg.max = max(agg.max, m.DetectionTime)
				}
				if r.live.BoundMs > 0 && (!m.Detected || m.DetectionTime > bound) {
					failures = append(failures, fmt.Sprintf(
						"node %d did not suspect departed node %d within %v (detected=%v T_D=%v)",
						o, q, bound, m.Detected, m.DetectionTime))
				}
			} else if st.pausedEver {
				if finalSuspected {
					pauseAggs[q] = append(pauseAggs[q], o)
					if r.live.BoundMs > 0 {
						failures = append(failures, fmt.Sprintf(
							"node %d still suspects resumed node %d at collection", o, q))
					}
				} else if pauseAggs[q] == nil {
					pauseAggs[q] = []int{}
				}
			} else {
				res.FalseSuspicionMistakes += m.Mistakes
				res.MinQueryAccuracy = min(res.MinQueryAccuracy, m.QueryAccuracy)
			}

			if r.cfg.IncludePairs {
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

	for _, q := range slices.Sorted(maps.Keys(killAggs)) {
		agg := killAggs[q]
		at, ok := r.plan.Kills[q]
		if !ok {
			at = r.plan.Leaves[q]
		}
		kr := KillReport{Target: q, AtMs: at, Observers: agg.observers, Detected: agg.detected}
		if agg.detected > 0 {
			kr.MeanDetectionMs = float64(agg.sum) / float64(agg.detected) / float64(time.Millisecond)
			kr.MaxDetectionMs = float64(agg.max) / float64(time.Millisecond)
		}
		res.Kills = append(res.Kills, kr)
	}
	for _, q := range slices.Sorted(maps.Keys(pauseAggs)) {
		res.Pauses = append(res.Pauses, PauseReport{Target: q, SuspectedAtEndBy: pauseAggs[q]})
	}
	for _, q := range slices.Sorted(maps.Keys(joinAggs)) {
		agg := joinAggs[q]
		jr := JoinReport{Target: q, AtMs: r.plan.Joins[q], Observers: agg.observers, KnownBy: agg.known, InViewOf: agg.inView}
		if r.live.BoundMs > 0 {
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

// acceptLoop accepts node control connections and reads each one's
// hello under a deadline.
func acceptLoop(ln net.Listener, hellos chan<- helloMsg) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed: assembly is over
		}
		go func(conn net.Conn) {
			_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
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
func countConnected(states []*nodeState) int {
	n := 0
	for _, st := range states {
		if st != nil && st.conn != nil {
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
