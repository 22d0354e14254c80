// Package scenario is the declarative scenario format of the sweep
// stack (DESIGN.md §8): one JSON file describes one harness.Scenario —
// system size, protocol, detector oracle, crash schedule, topology,
// fault plan, scheduling policy, stop predicate, horizon and seed
// range. Load/Parse decode strictly (unknown fields are rejected, so a
// typo fails instead of silently configuring nothing) and validate.
// One compile checks every constraint, generates the topology once and
// resolves the fault plan against it: Validate runs it and discards the
// result, CompilePlan returns its FaultPlan, and Build lowers that plan
// into a runnable harness.Scenario. ConfigDigest fingerprints the
// canonical encoding — the digest the streaming checkpoints use as
// campaign identity.
//
// Topology awareness is the point of the format: the communication
// graph is *generated* (complete, ring, tree, or seeded random), and
// partitions are expressed against that graph — either as a node-set
// boundary whose crossing edges are computed, or as an explicit edge
// list validated against the generated edge set — then compiled to
// sim.EdgeCut plans. The E1–E9 experiment tables are built from nine
// such files under internal/experiments/testdata/scenarios/.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// Spec is the declarative form of one harness.Scenario. Field order is
// the canonical encoding order; ConfigDigest hashes exactly this
// serialization of the normalized spec.
type Spec struct {
	// Schema versions the spec format: empty for the original (v2)
	// schema, SchemaV3 for specs that use the fault-plan IR fields
	// (Plan, Live), the one spelling of link faults. v2's own "faults"
	// block is retired: it is an unknown field, so an old file fails to
	// parse instead of running with no faults.
	Schema string `json:"schema,omitempty"`
	// Name labels the scenario; the scenario runner also derives
	// checkpoint file names from it.
	Name string `json:"name"`
	// N is the system size |Ω|: at most model.MaxProcesses for the
	// simulator (Build), any size for a live cluster.
	N int `json:"n"`
	// Horizon bounds each run in global-clock ticks.
	Horizon int64 `json:"horizon"`
	// Seeds is the default seed range of a campaign over this scenario.
	Seeds SeedSpec `json:"seeds"`
	// Protocol selects the automaton under test.
	Protocol ProtocolSpec `json:"protocol"`
	// Oracle selects the failure detector.
	Oracle OracleSpec `json:"oracle"`
	// Crashes is the failure pattern: which processes crash, and when.
	Crashes []CrashSpec `json:"crashes,omitempty"`
	// Topology is the generated communication graph; the zero value
	// means complete.
	Topology TopologySpec `json:"topology,omitzero"`
	// Plan is the /v3 fault-plan timeline: typed actions (cut, heal,
	// drop, delay, kill, pause, resume, leave, join) compiled to the
	// FaultPlan IR that both the simulator and the live cluster
	// consume. Requires Schema = SchemaV3.
	Plan []ActionSpec `json:"plan,omitempty"`
	// Live carries the live-only parameters of a /v3 spec (gossip
	// interval, estimator, warmup/settle/bound); the simulator ignores
	// it. Requires Schema = SchemaV3.
	Live *LiveParams `json:"live,omitempty"`
	// Policy selects the scheduling policy; the zero value means
	// random-fair.
	Policy PolicySpec `json:"policy,omitzero"`
	// Stop selects the early-stop predicate; the zero value means run
	// to the horizon.
	Stop StopSpec `json:"stop,omitzero"`
	// AfterStep installs a scripted per-step adversary hook.
	AfterStep *HookSpec `json:"after_step,omitempty"`
}

// SeedSpec is the half-open seed interval [From, To) of a campaign.
type SeedSpec struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// CrashSpec schedules one crash.
type CrashSpec struct {
	// Process is the crashing process ID, 1..n.
	Process int `json:"process"`
	// At is the crash time.
	At int64 `json:"at"`
}

// ProtocolSpec selects the automaton under test. Kinds:
//
//   - "sflooding": S-based flooding consensus, distinct proposals
//   - "rotating": ◇S rotating-coordinator consensus
//   - "marabout": consensus on the future-reading detector M
//   - "partial-order": P<-based correct-restricted consensus
//   - "trb": terminating reliable broadcast, Waves waves
//   - "reduction": the T(D⇒P) consensus-sequence emulation over
//     sflooding instances, MaxInstances instances
//   - "abcast": atomic broadcast over a consensus sequence of at most
//     MaxInstances instances; every process broadcasts AbcastScript(n)
//   - "busy": the load-shaped broadcast workload of a sweep benchmark
type ProtocolSpec struct {
	Kind string `json:"kind"`
	// Waves is the wave count for "trb".
	Waves int `json:"waves,omitempty"`
	// MaxInstances bounds the consensus sequence for "reduction" and
	// "abcast".
	MaxInstances int `json:"max_instances,omitempty"`
}

// OracleSpec selects the failure detector. Kinds and their parameters:
//
//   - "perfect": P with detection latency Delay
//   - "scribe": the crash chronicle C
//   - "marabout": the future-reading M
//   - "partially-perfect": P< with latency Delay
//   - "realistic-strong": strongly accurate detector with BaseDelay +
//     per-(watcher,target) jitter in [0, JitterMax], scattered by Seed
//   - "eventually-strong": ◇S with stabilization time GST, latency
//     Delay and pre-GST false-suspicion rate FalseRate%; PerSeed keys
//     the noise stream on the sweep seed (Seed is then ignored)
//   - "eventually-perfect": ◇P, with the parameters of
//     "eventually-strong"
type OracleSpec struct {
	Kind      string `json:"kind"`
	Delay     int64  `json:"delay,omitempty"`
	BaseDelay int64  `json:"base_delay,omitempty"`
	JitterMax int64  `json:"jitter_max,omitempty"`
	GST       int64  `json:"gst,omitempty"`
	FalseRate int    `json:"false_rate,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	PerSeed   bool   `json:"per_seed,omitempty"`
}

// TopologySpec is the generated communication graph. Kinds:
//
//   - "complete" (default): every pair of processes is linked
//   - "ring": p_i — p_{i+1}, closing back to p_1
//   - "tree": rooted at p_1 with arity Degree (default 2)
//   - "random": a seeded random connected graph — a random spanning
//     tree plus each remaining pair independently with EdgeProb%
//   - "chord": p_i — p_{i±2^j mod n} for every power of two below n,
//     the O(log n)-degree gossip overlay of the live cluster
//
// A non-complete topology is embedded as a permanent sim.EdgeCut of
// every non-edge, so traffic between unlinked processes never flows;
// protocols that rely on direct all-to-all exchange lose liveness on
// sparse graphs (that is the experiment, not a bug).
type TopologySpec struct {
	Kind string `json:"kind,omitempty"`
	// Seed drives the "random" generation.
	Seed int64 `json:"seed,omitempty"`
	// EdgeProb is the percentage (0..100) chance of each extra edge in
	// "random" graphs.
	EdgeProb int `json:"edge_prob,omitempty"`
	// Degree is the arity of "tree" topologies; default 2.
	Degree int `json:"degree,omitempty"`
}

// PolicySpec selects the scheduling policy. Kinds: "random-fair"
// (default), "fair", and "delay" — the Lemma 4.1 embargo policy that
// withholds all traffic from or to Target until Until.
type PolicySpec struct {
	Kind   string `json:"kind,omitempty"`
	Target []int  `json:"target,omitempty"`
	Until  int64  `json:"until,omitempty"`
}

// StopSpec selects the early-stop predicate. Kinds: "none" (default,
// run to the horizon), "decided" (every correct process has decided in
// instance Instance), and "all-delivered" (every wave of a "trb"
// protocol delivered everywhere).
type StopSpec struct {
	Kind     string `json:"kind,omitempty"`
	Instance int    `json:"instance,omitempty"`
}

// HookSpec installs a scripted per-step adversary. Kinds:
// "crash-on-decide" — crash Process the moment it decides (the §6.2
// uniformity attack).
type HookSpec struct {
	Kind    string `json:"kind"`
	Process int    `json:"process,omitempty"`
}

// Parse decodes one scenario spec strictly: unknown fields anywhere in
// the document are an error, trailing garbage is an error, and the
// result is normalized (defaulted kinds spelled out) and validated.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: parse: trailing data after the spec document")
	}
	s.normalize()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load reads and parses one scenario file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// normalize spells out the defaulted kind fields, so that a spec that
// omits them and one that writes them explicitly share one canonical
// encoding (and therefore one ConfigDigest).
func (s *Spec) normalize() {
	if s.Topology.Kind == "" {
		s.Topology.Kind = TopologyComplete
	}
	if s.Policy.Kind == "" {
		s.Policy.Kind = PolicyRandomFair
	}
	if s.Stop.Kind == "" {
		s.Stop.Kind = StopNone
	}
	if s.Live != nil {
		s.Live.Normalize()
	}
}

// Canonical returns the canonical encoding of the spec: the normalized
// struct serialized with fixed field order and indentation. Two specs
// are the same campaign exactly when their canonical encodings are
// byte-identical.
func (s Spec) Canonical() ([]byte, error) {
	s.normalize()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode: %w", err)
	}
	return append(data, '\n'), nil
}

// ConfigDigest returns "sha256:<hex>" over the canonical encoding: the
// deterministic identity of the scenario configuration. Stream records
// it in checkpoints, so a changed spec refuses to resume a stale
// campaign even under an unchanged name.
func (s Spec) ConfigDigest() (string, error) {
	data, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}
