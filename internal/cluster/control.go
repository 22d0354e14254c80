// Package cluster is the live-cluster orchestration harness: it
// spawns N real node processes (cmd/fdnode — or goroutines, for
// in-process runs), wires them into a generated gossip overlay
// reusing internal/scenario's topology generators, interprets a
// compiled scenario.FaultPlan — SIGKILL, SIGSTOP/SIGCONT,
// socket-level partitions, seeded per-frame drop/delay, and mid-run
// churn (leave/join) — and folds each node's suspicion timelines
// through internal/qos into the same Chen-Toueg-Aguilera vocabulary
// as the simulator, so live runs and E-table rows are directly
// comparable. A run is described by one /v3 scenario.Spec, the same
// document fdsim lowers onto the simulator.
//
// The control plane is one TCP connection per node to the
// orchestrator, carrying length-prefixed JSON frames
// (transport.WriteJSON/ReadJSON): hello → topology → {cut, heal, drop,
// delay, join}* → collect → report → stop. The data plane is the
// gossip heartbeat overlay of internal/heartbeat over
// internal/transport TCP nodes and their binary frames; each node
// heartbeats only its O(log n) overlay neighbors.
package cluster

import (
	"realisticfd/internal/qos"
	"realisticfd/internal/transport"
)

// Control message kinds.
const (
	ctlHello    = "hello"    // node → orch: I'm up, data plane at Addr
	ctlTopology = "topology" // orch → node: your overlay peers; start gossiping
	ctlCut      = "cut"      // orch → node: drop frames to/from Targets
	ctlHeal     = "heal"     // orch → node: undo the cuts to/from Targets
	ctlDrop     = "drop"     // orch → node: set the fault-hook loss rate to Pct
	ctlDelay    = "delay"    // orch → node: set the fault-hook delay bound to BoundMs
	ctlJoin     = "join"     // orch → node: Joiner came up at JoinerAddr; adopt it
	ctlCollect  = "collect"  // orch → node: send your report
	ctlReport   = "report"   // node → orch: suspicion timelines + stats
	ctlStop     = "stop"     // orch → node: clean exit
)

// ctlMsg is one control-channel frame; Kind selects which fields are
// meaningful.
type ctlMsg struct {
	Kind string `json:"kind"`

	// hello
	ID   int    `json:"id,omitempty"`
	Addr string `json:"addr,omitempty"`

	// topology: data-plane addresses of this node's overlay neighbors,
	// plus the plan's not-yet-joined nodes (absent from the feed and
	// never suspected until their counters appear).
	Peers       map[int]string `json:"peers,omitempty"`
	GossipPeers []int          `json:"gossip_peers,omitempty"`
	Deferred    []int          `json:"deferred,omitempty"`

	// cut / heal
	Targets []int `json:"targets,omitempty"`

	// drop / delay
	Pct     int   `json:"pct,omitempty"`
	BoundMs int64 `json:"bound_ms,omitempty"`

	// join
	Joiner     int    `json:"joiner,omitempty"`
	JoinerAddr string `json:"joiner_addr,omitempty"`

	// report
	Report *NodeReport `json:"report,omitempty"`
}

// NodeReport is one node's collected observations: per-peer suspicion
// verdict change-points — every one the gossiper logged up to
// EndUnixNano, each stamped when the timeout expired or the refuting
// counter arrived (Samples only counts the sample ticks) — gossip
// fan-out accounting, the membership feed state, and — when a fault
// hook ran — the per-link frame/drop tallies and (optionally) recorded
// decision prefixes.
type NodeReport struct {
	ID            int                `json:"id"`
	StartUnixNano int64              `json:"start"`
	EndUnixNano   int64              `json:"end"`
	Samples       int                `json:"samples"`
	Flips         map[int][]qos.Flip `json:"flips,omitempty"`
	Destinations  int                `json:"destinations"`
	Rounds        uint64             `json:"rounds"`
	ViewID        int                `json:"view_id,omitempty"`
	Excluded      []int              `json:"excluded,omitempty"`
	// Members is the final membership view (sorted); Known is the
	// gossip layer's present set — initial nodes plus every joiner
	// whose counters were observed.
	Members []int `json:"members,omitempty"`
	Known   []int `json:"known,omitempty"`
	// FaultStats tallies the fault hook's per-destination frames and
	// drops; FaultDecisions carries the recorded verdict prefixes when
	// the orchestrator asked for them (determinism audits).
	FaultStats     map[int]transport.LinkStats `json:"fault_stats,omitempty"`
	FaultDecisions map[int][]bool              `json:"fault_decisions,omitempty"`
}
