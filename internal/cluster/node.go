package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"realisticfd/internal/heartbeat"
	"realisticfd/internal/membership"
	"realisticfd/internal/model"
	"realisticfd/internal/qos"
	"realisticfd/internal/scenario"
	"realisticfd/internal/transport"
)

// NodeConfig is the JSON document handed to each node — cmd/fdnode
// reads it from stdin; in-process nodes get it directly. The node
// dials ControlAddr, introduces itself, and receives its overlay
// wiring from the orchestrator; everything else is local policy.
type NodeConfig struct {
	// ID is this node's 1-based identity.
	ID int `json:"id"`
	// N is the cluster size.
	N int `json:"n"`
	// ControlAddr is the orchestrator's control listener.
	ControlAddr string `json:"control_addr"`
	// IntervalMs is the gossip round period (default 50).
	IntervalMs int `json:"interval_ms,omitempty"`
	// SamplePeriodMs is the period of the QoS fold's query grid and of
	// the node's sample tick, which counts Samples and puts accusations
	// to the membership feed; verdict flips are not sampled, they are
	// stamped when they happen (default: the gossip interval).
	SamplePeriodMs int `json:"sample_period_ms,omitempty"`
	// Fanout bounds gossip destinations per round; 0 means every
	// overlay neighbor.
	Fanout int `json:"fanout,omitempty"`
	// Estimator selects the per-peer suspicion estimator.
	Estimator scenario.LiveEstimatorSpec `json:"estimator,omitzero"`
	// Seed drives fanout sampling.
	Seed int64 `json:"seed,omitempty"`
	// FaultSeed, when non-zero, installs a transport.FaultHook seeded
	// with it — the plan interpreter's drop/delay actions then set its
	// rates over the control channel.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// DropPct and DelayMaxMs preload the fault hook with the loss rates
	// already in effect at this node's start instant. A rate change over
	// the control channel lands at a wall-clock-dependent frame index;
	// preloading keeps fully seeded runs reproducible frame-by-frame.
	DropPct    int   `json:"drop_pct,omitempty"`
	DelayMaxMs int64 `json:"delay_max_ms,omitempty"`
	// RecordDecisions ships the fault hook's per-link verdict prefixes
	// in the report (the orchestrator's determinism audit).
	RecordDecisions bool `json:"record_decisions,omitempty"`
}

func (c *NodeConfig) normalize() {
	if c.IntervalMs == 0 {
		c.IntervalMs = 50
	}
	if c.SamplePeriodMs == 0 {
		c.SamplePeriodMs = c.IntervalMs
	}
}

func (c NodeConfig) validate() error {
	if c.N < 2 {
		return fmt.Errorf("cluster: node config n = %d must be ≥ 2", c.N)
	}
	if c.ID < 1 || c.ID > c.N {
		return fmt.Errorf("cluster: node id %d outside [1, %d]", c.ID, c.N)
	}
	if c.ControlAddr == "" {
		return fmt.Errorf("cluster: node config needs control_addr")
	}
	if c.IntervalMs < 1 || c.SamplePeriodMs < 1 {
		return fmt.Errorf("cluster: node periods must be ≥ 1ms")
	}
	return nil
}

// EstimatorFactory compiles a declarative estimator spec into the
// constructor the gossip layer calls per monitored peer. Defaults
// scale with the gossip interval: with relayed counters a peer's
// "heartbeat" arrives roughly once per interval, so margins are
// expressed in multiples of it.
func EstimatorFactory(spec scenario.LiveEstimatorSpec, interval time.Duration) func() heartbeat.Estimator {
	switch spec.Kind {
	case scenario.LiveEstFixed:
		timeout := time.Duration(spec.TimeoutMs) * time.Millisecond
		return func() heartbeat.Estimator {
			return &heartbeat.FixedTimeout{Timeout: timeout}
		}
	case scenario.LiveEstChen:
		window := spec.Window
		if window <= 0 {
			window = 16
		}
		alpha := time.Duration(spec.AlphaMs) * time.Millisecond
		if alpha <= 0 {
			alpha = 4 * interval
		}
		return func() heartbeat.Estimator {
			return &heartbeat.Chen{Window: window, Alpha: alpha}
		}
	default: // φ-accrual, the zero value
		window := spec.Window
		if window <= 0 {
			window = 64
		}
		phi := spec.Phi
		if phi <= 0 {
			phi = 8
		}
		minStd := time.Duration(spec.MinStdDevMs) * time.Millisecond
		if minStd <= 0 {
			minStd = interval / 4
		}
		return func() heartbeat.Estimator {
			return &heartbeat.PhiAccrual{
				Window:       window,
				Threshold:    phi,
				MinStdDev:    minStd,
				FirstTimeout: 20 * interval,
			}
		}
	}
}

// RunNode runs one cluster node to completion: dial the orchestrator,
// hello, receive the overlay, gossip until told to stop (or until the
// control connection dies — an orphaned node exits rather than
// lingering). This is cmd/fdnode's entire main.
func RunNode(cfg NodeConfig) error { return runNode(cfg, nil) }

// RunNodeStdin decodes a NodeConfig strictly from r and runs it.
func RunNodeStdin(r io.Reader) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg NodeConfig
	if err := dec.Decode(&cfg); err != nil {
		return fmt.Errorf("cluster: node config: %w", err)
	}
	return RunNode(cfg)
}

// inprocHandle lets the in-process spawner stand in for the kernel:
// Kill closes a channel the node loop selects on, Pause/Resume mute
// the gossiper the way SIGSTOP freezes a process.
type inprocHandle struct {
	mu     sync.Mutex
	g      *heartbeat.Gossiper
	paused bool

	kill     chan struct{}
	killOnce sync.Once
	done     chan struct{}
	err      error
}

func (h *inprocHandle) register(g *heartbeat.Gossiper) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.g = g
	if h.paused {
		g.SetMuted(true)
	}
}

func (h *inprocHandle) setPaused(paused bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.paused = paused
	if h.g != nil {
		h.g.SetMuted(paused)
	}
}

func (h *inprocHandle) isPaused() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.paused
}

// Kill implements NodeHandle: abrupt death, no report, no goodbye.
func (h *inprocHandle) Kill() error {
	h.killOnce.Do(func() { close(h.kill) })
	return nil
}

// Pause implements NodeHandle.
func (h *inprocHandle) Pause() error { h.setPaused(true); return nil }

// Resume implements NodeHandle.
func (h *inprocHandle) Resume() error { h.setPaused(false); return nil }

// Shutdown implements NodeHandle: kill if still running, wait for the
// goroutine to unwind.
func (h *inprocHandle) Shutdown() {
	_ = h.Kill()
	<-h.done
}

// verdictLog is a node's consumer of its gossiper's transitions: each
// suspect or trust becomes a flip of the report at the instant the
// gossiper stamped it, a suspect is put to the membership feed at once,
// so the view that excludes a crashed node is installed when its
// timeout expires, and a joiner is admitted at its first sighting.
type verdictLog struct {
	g     *heartbeat.Gossiper
	in    <-chan heartbeat.Transition
	feed  *membership.Feed // nil when the group is too small for one
	flips map[int][]qos.Flip
}

func newVerdictLog(g *heartbeat.Gossiper, feed *membership.Feed) *verdictLog {
	return &verdictLog{g: g, in: g.Transitions(), feed: feed, flips: map[int][]qos.Flip{}}
}

func (l *verdictLog) apply(tr heartbeat.Transition) {
	if tr.Cause == heartbeat.CauseFirstSighting {
		if l.feed != nil {
			l.feed.Admit(tr.Peer)
		}
		return
	}
	l.flips[tr.Peer] = append(l.flips[tr.Peer], qos.Flip{AtUnixNano: tr.At.UnixNano(), Suspected: tr.Suspected})
	if tr.Suspected {
		l.updateFeed()
	}
}

// updateFeed puts the community suspicion — own verdicts and live
// accusations from elsewhere — to the membership feed.
func (l *verdictLog) updateFeed() {
	if l.feed != nil {
		l.feed.Update(l.g.CommunitySuspects())
	}
}

// catchUp reads the gossiper's clock, then applies every transition
// queued by then, and returns the instant it read. A transition the
// gossiper stamps in between can land in the flips with a stamp after
// that instant; FoldFlips, whose window ends there, ignores it.
func (l *verdictLog) catchUp() time.Time {
	now := l.g.Now()
	for {
		select {
		case tr := <-l.in:
			l.apply(tr)
		default:
			return now
		}
	}
}

// runNode is the node runtime shared by real processes (h == nil) and
// in-process nodes.
func runNode(cfg NodeConfig, h *inprocHandle) error {
	cfg.normalize()
	if err := cfg.validate(); err != nil {
		return err
	}
	interval := time.Duration(cfg.IntervalMs) * time.Millisecond
	samplePeriod := time.Duration(cfg.SamplePeriodMs) * time.Millisecond

	tr, err := transport.NewTCPNode(model.ProcessID(cfg.ID))
	if err != nil {
		return err
	}
	ctl, err := net.Dial("tcp", cfg.ControlAddr)
	if err != nil {
		_ = tr.Close()
		return fmt.Errorf("cluster: node %d: dial control: %w", cfg.ID, err)
	}
	defer func() { _ = ctl.Close() }()

	ctlr := bufio.NewReader(ctl)
	if err := transport.WriteJSON(ctl, ctlMsg{Kind: ctlHello, ID: cfg.ID, Addr: tr.Addr()}); err != nil {
		_ = tr.Close()
		return fmt.Errorf("cluster: node %d: hello: %w", cfg.ID, err)
	}
	var topo ctlMsg
	if err := transport.ReadJSON(ctlr, &topo); err != nil {
		_ = tr.Close()
		return fmt.Errorf("cluster: node %d: await topology: %w", cfg.ID, err)
	}
	if topo.Kind != ctlTopology || len(topo.GossipPeers) == 0 {
		_ = tr.Close()
		return fmt.Errorf("cluster: node %d: expected topology, got %q", cfg.ID, topo.Kind)
	}
	for id, addr := range topo.Peers {
		tr.SetPeer(model.ProcessID(id), addr)
	}
	var hook *transport.FaultHook
	if cfg.FaultSeed != 0 {
		hook = transport.NewFaultHook(model.ProcessID(cfg.ID), uint64(cfg.FaultSeed))
		if cfg.DropPct > 0 {
			hook.SetDrop(cfg.DropPct)
		}
		if cfg.DelayMaxMs > 0 {
			hook.SetDelayMax(int(cfg.DelayMaxMs))
		}
		tr.SetFaultHook(hook)
	}

	// The membership feed derives view sequences from the disseminated
	// suspicion state at any cluster size (the former 64-process cap is
	// gone): initial members are everyone but the plan's deferred
	// joiners, who are admitted as the gossip layer sights them.
	var feed *membership.Feed
	{
		deferred := make(map[int]bool, len(topo.Deferred))
		for _, d := range topo.Deferred {
			deferred[d] = true
		}
		members := make([]int, 0, cfg.N)
		for id := 1; id <= cfg.N; id++ {
			if !deferred[id] || id == cfg.ID {
				members = append(members, id)
			}
		}
		feed, _ = membership.NewFeedMembers(cfg.ID, members)
	}

	g, err := heartbeat.NewGossiper(tr, heartbeat.GossipConfig{
		Self:         cfg.ID,
		N:            cfg.N,
		Peers:        topo.GossipPeers,
		Fanout:       cfg.Fanout,
		Interval:     interval,
		NewEstimator: EstimatorFactory(cfg.Estimator, interval),
		Seed:         cfg.Seed,
		Deferred:     topo.Deferred,
	})
	if err != nil {
		_ = tr.Close()
		return err
	}
	defer g.Close()
	log := newVerdictLog(g, feed) // before the first transition can happen
	if h != nil {
		h.register(g)
	}
	// Nothing reads g.Forward(): gossip is the node's only traffic, and
	// once its buffer is full the gossiper drops a stray non-gossip
	// envelope and counts it in ForwardDrops, without stalling detection.

	// Control reader: buffered well past the handful of frames an
	// orchestrator ever sends, so the goroutine cannot jam if the loop
	// exits first; the deferred ctl.Close() unblocks the read.
	ctlIn := make(chan ctlMsg, 64)
	ctlErr := make(chan error, 1)
	go func() {
		for {
			var m ctlMsg
			if err := transport.ReadJSON(ctlr, &m); err != nil {
				ctlErr <- err
				return
			}
			ctlIn <- m
		}
	}()

	start := time.Now()
	samples := 0
	sample := func() {
		if h != nil && h.isPaused() {
			return // a SIGSTOPped process samples nothing
		}
		samples++
		log.updateFeed() // accusations made elsewhere have no event yet
	}

	var killCh chan struct{}
	if h != nil {
		killCh = h.kill
	}
	ticker := time.NewTicker(samplePeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			sample()
		case tr := <-log.in:
			log.apply(tr)
		case m := <-ctlIn:
			switch m.Kind {
			case ctlCut, ctlHeal:
				for _, t := range m.Targets {
					tr.SetCut(model.ProcessID(t), m.Kind == ctlCut)
				}
			case ctlDrop:
				if hook != nil {
					hook.SetDrop(m.Pct)
				}
			case ctlDelay:
				if hook != nil {
					hook.SetDelayMax(int(m.BoundMs))
				}
			case ctlJoin:
				tr.SetPeer(model.ProcessID(m.Joiner), m.JoinerAddr)
				g.AddPeer(m.Joiner)
			case ctlCollect:
				now := log.catchUp()
				sample()
				rep := &NodeReport{
					ID:              cfg.ID,
					StartUnixNano:   start.UnixNano(),
					EndUnixNano:     now.UnixNano(),
					Samples:         samples,
					Flips:           log.flips,
					Destinations:    g.DistinctDestinations(),
					Rounds:          g.Rounds(),
					TransitionDrops: g.Stats().TransitionDrops,
				}
				if feed != nil {
					v := feed.View()
					rep.ViewID = v.ID
					rep.Members = v.Members
					rep.Excluded = feed.Excluded()
				}
				rep.Known = g.Known()
				if hook != nil {
					rep.FaultStats = map[int]transport.LinkStats{}
					for to, st := range hook.Stats() {
						rep.FaultStats[int(to)] = st
					}
					if cfg.RecordDecisions {
						rep.FaultDecisions = map[int][]bool{}
						for to := range rep.FaultStats {
							rep.FaultDecisions[to] = hook.Decisions(model.ProcessID(to))
						}
					}
				}
				if err := transport.WriteJSON(ctl, ctlMsg{Kind: ctlReport, Report: rep}); err != nil {
					return fmt.Errorf("cluster: node %d: report: %w", cfg.ID, err)
				}
			case ctlStop:
				return nil
			}
		case err := <-ctlErr:
			// Orchestrator gone: an orphaned node exits instead of
			// gossiping forever.
			return fmt.Errorf("cluster: node %d: control channel: %w", cfg.ID, err)
		case <-killCh:
			return nil
		}
	}
}
