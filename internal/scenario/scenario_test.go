package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realisticfd/internal/abcast"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/sim"
)

// validSpec is a small well-formed spec exercised (and perturbed) by
// most tests below.
func validSpec() Spec {
	return Spec{
		Schema:   SchemaV3,
		Name:     "test",
		N:        5,
		Horizon:  2000,
		Seeds:    SeedSpec{From: 0, To: 8},
		Protocol: ProtocolSpec{Kind: ProtocolSFlooding},
		Oracle:   OracleSpec{Kind: OraclePerfect, Delay: 2},
		Crashes:  []CrashSpec{{Process: 2, At: 40}},
		Plan: []ActionSpec{
			{At: 0, Action: "delay", Bound: 3},
			{At: 40, Action: "cut", Side: []int{1, 2}},
			{At: 400, Action: "heal"},
		},
		Stop: StopSpec{Kind: StopDecided},
	}
}

const validJSON = `{
  "schema": "fdspec/v3",
  "name": "test",
  "n": 5,
  "horizon": 2000,
  "seeds": {"from": 0, "to": 8},
  "protocol": {"kind": "sflooding"},
  "oracle": {"kind": "perfect", "delay": 2},
  "crashes": [{"process": 2, "at": 40}],
  "plan": [
    {"at": 0, "action": "delay", "bound": 3},
    {"at": 40, "action": "cut", "side": [1, 2]},
    {"at": 400, "action": "heal"}
  ],
  "stop": {"kind": "decided"}
}`

// TestParseRejectsBadSpecs walks the loader error paths: every
// malformed document must fail with an error naming the problem, never
// silently configure something else.
func TestParseRejectsBadSpecs(t *testing.T) {
	t.Parallel()
	cases := []struct {
		label   string
		mangle  func(Spec) Spec
		wantErr string
	}{
		{"bad topology kind", func(s Spec) Spec { s.Topology.Kind = "torus"; return s }, `unknown kind "torus"`},
		{"unknown oracle", func(s Spec) Spec { s.Oracle.Kind = "psychic"; return s }, `unknown kind "psychic"`},
		{"unknown protocol", func(s Spec) Spec { s.Protocol.Kind = "paxos"; return s }, `unknown kind "paxos"`},
		{"crash out of range", func(s Spec) Spec { s.Crashes[0].Process = 9; return s }, "process 9 outside [1, 5]"},
		{"double crash", func(s Spec) Spec { s.Crashes = append(s.Crashes, CrashSpec{Process: 2, At: 99}); return s }, "crashes twice"},
		{"inverted seeds", func(s Spec) Spec { s.Seeds = SeedSpec{From: 10, To: 3}; return s }, "inverted range"},
		{"no horizon", func(s Spec) Spec { s.Horizon = 0; return s }, "horizon"},
		{"n zero", func(s Spec) Spec { s.N = 0; return s }, "n = 0"},
		{"trb without waves", func(s Spec) Spec { s.Protocol = ProtocolSpec{Kind: ProtocolTRB}; s.Stop = StopSpec{}; return s }, "waves"},
		{"all-delivered without trb", func(s Spec) Spec { s.Stop = StopSpec{Kind: StopAllDelivered}; return s }, "requires the trb protocol"},
		{"per_seed on perfect", func(s Spec) Spec { s.Oracle.PerSeed = true; return s }, "per_seed"},
		{"abcast without max_instances", func(s Spec) Spec { s.Protocol = ProtocolSpec{Kind: ProtocolAbcast}; return s }, "max_instances"},
		{"eventually-perfect false_rate", func(s Spec) Spec {
			s.Oracle = OracleSpec{Kind: OracleEventuallyPerfect, FalseRate: 101}
			return s
		}, "false_rate"},
		{"bad hook", func(s Spec) Spec { s.AfterStep = &HookSpec{Kind: "explode"}; return s }, `unknown kind "explode"`},
		{"hook victim out of range", func(s Spec) Spec { s.AfterStep = &HookSpec{Kind: HookCrashOnDecide, Process: 0}; return s }, "process 0"},
		{"delay policy without target", func(s Spec) Spec { s.Policy = PolicySpec{Kind: PolicyDelay, Until: 50}; return s }, "target is required"},
	}
	for _, c := range cases {
		s := c.mangle(validSpec())
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.label)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.label, err, c.wantErr)
		}
	}
}

// TestParseRejectsUnknownFields pins strict decoding: a typo anywhere
// in the document — top level or nested — is an error, and so is the
// retired v2 "faults" block, so an old file cannot run with no faults.
func TestParseRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ doc, wantErr string }{
		{strings.Replace(validJSON, `"name"`, `"nmae"`, 1), `unknown field "nmae"`},
		{strings.Replace(validJSON, `"delay": 2`, `"delay": 2, "jitter": 5`, 1), `unknown field "jitter"`},
		{strings.Replace(validJSON, `"bound": 3`, `"bnd": 3`, 1), `unknown field "bnd"`},
		{strings.Replace(validJSON, `"stop"`, `"faults": {"drop_pct": 10}, "stop"`, 1), `unknown field "faults"`},
		{validJSON + `{"second": "document"}`, "trailing data"},
	} {
		_, err := Parse([]byte(c.doc))
		if err == nil {
			t.Errorf("malformed document accepted:\n%s", c.doc)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("error %q does not mention %q", err, c.wantErr)
		}
	}
	if _, err := Parse([]byte(validJSON)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

// TestPartitionCutMustExistInTopology pins the topology-aware
// validation: an explicit cut may only sever edges the generated graph
// actually has.
func TestPartitionCutMustExistInTopology(t *testing.T) {
	t.Parallel()
	s := validSpec()
	s.Topology = TopologySpec{Kind: TopologyRing}
	s.Plan[1] = ActionSpec{At: 10, Action: "cut", Cut: [][2]int{{1, 3}}}
	err := s.Validate()
	if err == nil {
		t.Fatal("cut of a nonexistent ring edge validated")
	}
	if !strings.Contains(err.Error(), "does not exist in the ring topology") {
		t.Fatalf("error %q does not name the missing edge", err)
	}
	// The same cut is fine where the edge exists.
	s.Plan[1].Cut = [][2]int{{1, 2}}
	if err := s.Validate(); err != nil {
		t.Fatalf("ring-edge cut rejected: %v", err)
	}
}

// TestConfigDigestRoundTrip is the canonical-encoding gate: load →
// digest → re-encode → re-parse must reproduce the digest, and a spec
// that spells out a default must digest identically to one that omits
// it.
func TestConfigDigestRoundTrip(t *testing.T) {
	t.Parallel()
	s, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	d1, err := s.ConfigDigest()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(enc)
	if err != nil {
		t.Fatalf("canonical encoding does not re-parse: %v", err)
	}
	d2, err := back.ConfigDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest changed across encode/parse: %s vs %s", d1, d2)
	}
	if !strings.HasPrefix(d1, "sha256:") {
		t.Fatalf("digest %q has no scheme prefix", d1)
	}

	explicit := strings.Replace(validJSON, `"stop"`, `"topology": {"kind": "complete"}, "policy": {"kind": "random-fair"}, "stop"`, 1)
	se, err := Parse([]byte(explicit))
	if err != nil {
		t.Fatal(err)
	}
	d3, err := se.ConfigDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Fatal("explicit defaults digest differently from omitted defaults")
	}

	changed := validSpec()
	changed.Plan[0].Bound = 4
	d4, err := changed.ConfigDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d4 == d1 {
		t.Fatal("changed fault plan kept the same digest")
	}
}

// TestLoadFile exercises the file path, including the error wrapping
// that names the offending file.
func TestLoadFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(validJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(good); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x", "unknown_knob": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(bad)
	if err == nil {
		t.Fatal("invalid file accepted")
	}
	if !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("load error %q does not name the file", err)
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestTopologies pins the generated edge sets: sizes, connectivity
// invariants, and determinism of random generation.
func TestTopologies(t *testing.T) {
	t.Parallel()
	edges := func(ts TopologySpec, n int) []sim.Edge {
		es, err := ts.Edges(n)
		if err != nil {
			t.Fatalf("%+v: %v", ts, err)
		}
		return es
	}
	if got := edges(TopologySpec{Kind: TopologyComplete}, 5); len(got) != 10 {
		t.Errorf("complete K5 has %d edges, want 10", len(got))
	}
	if got := edges(TopologySpec{Kind: TopologyRing}, 5); len(got) != 5 {
		t.Errorf("5-ring has %d edges, want 5", len(got))
	}
	if got := edges(TopologySpec{Kind: TopologyRing}, 2); len(got) != 1 {
		t.Errorf("2-ring has %d edges, want 1", len(got))
	}
	if got := edges(TopologySpec{Kind: TopologyTree}, 7); len(got) != 6 {
		t.Errorf("7-node tree has %d edges, want 6", len(got))
	}
	for _, e := range edges(TopologySpec{Kind: TopologyTree, Degree: 3}, 13) {
		if e.A == e.B {
			t.Errorf("self-loop %v in tree", e)
		}
	}
	r1 := edges(TopologySpec{Kind: TopologyRandom, Seed: 7, EdgeProb: 30}, 12)
	r2 := edges(TopologySpec{Kind: TopologyRandom, Seed: 7, EdgeProb: 30}, 12)
	if len(r1) != len(r2) {
		t.Fatalf("random topology not deterministic: %d vs %d edges", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("random topology not deterministic at edge %d: %v vs %v", i, r1[i], r2[i])
		}
	}
	if len(r1) < 11 {
		t.Errorf("random topology on 12 nodes has %d edges, fewer than a spanning tree", len(r1))
	}
	r3 := edges(TopologySpec{Kind: TopologyRandom, Seed: 8, EdgeProb: 30}, 12)
	same := len(r1) == len(r3)
	if same {
		for i := range r1 {
			if r1[i] != r3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds generated the identical random topology")
	}
}

// TestBuildRunsDeterministically compiles a spec twice and checks the
// two scenarios replay byte-identically, including a topology-aware
// partition on a ring.
func TestBuildRunsDeterministically(t *testing.T) {
	t.Parallel()
	s := validSpec()
	s.Topology = TopologySpec{Kind: TopologyRing}
	s.Plan[1] = ActionSpec{At: 10, Action: "cut", Cut: [][2]int{{2, 3}}}
	s.Plan[2].At = 200
	digests := func() []string {
		sc := MustBuild(s)
		var out []string
		for _, r := range harness.SeedMap(harness.Seeds(4), 1, func(_ *sim.RunContext, seed int64) harness.Result { return sc.Run(seed) }) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			out = append(out, r.Trace.Digest())
		}
		return out
	}
	a, b := digests(), digests()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d replayed differently: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestBuildSparseTopologyBlocksNonEdges checks the sparse-topology
// embedding: traffic between unlinked processes never flows.
func TestBuildSparseTopologyBlocksNonEdges(t *testing.T) {
	t.Parallel()
	s := Spec{
		Name:     "ring-busy",
		N:        5,
		Horizon:  300,
		Seeds:    SeedSpec{From: 0, To: 1},
		Protocol: ProtocolSpec{Kind: ProtocolBusy},
		Oracle:   OracleSpec{Kind: OraclePerfect, Delay: 2},
		Topology: TopologySpec{Kind: TopologyRing},
	}
	sc := MustBuild(s)
	if sc.Faults == nil || len(sc.Faults.Cuts) != 1 {
		t.Fatalf("ring topology compiled no permanent cut: %+v", sc.Faults)
	}
	r := sc.Run(0)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	ringEdges, err := s.Topology.Edges(s.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range r.Trace.Events {
		if ev.Msg == nil || ev.Msg.From == ev.Msg.To {
			continue
		}
		a, b := int(min(ev.Msg.From, ev.Msg.To)), int(max(ev.Msg.From, ev.Msg.To))
		if edgeIndex(ringEdges, [2]int{a, b}) < 0 {
			t.Fatalf("message delivered across non-edge %v→%v", ev.Msg.From, ev.Msg.To)
		}
	}
}

// TestBuildAbcastAndEventuallyPerfect: the abcast protocol broadcasts
// AbcastScript, and a per_seed eventually-perfect oracle keys its
// noise on the run's seed.
func TestBuildAbcastAndEventuallyPerfect(t *testing.T) {
	t.Parallel()
	s := validSpec()
	s.Plan = nil
	s.Stop = StopSpec{}
	s.Protocol = ProtocolSpec{Kind: ProtocolAbcast, MaxInstances: 30}
	s.Oracle = OracleSpec{Kind: OracleEventuallyPerfect, GST: 100, Delay: 3, FalseRate: 10, PerSeed: true}
	sc := MustBuild(s)
	atomic, ok := sc.Automaton.(abcast.Atomic)
	if !ok || atomic.MaxInstances != 30 || len(atomic.ToBroadcast) != s.N || len(atomic.ToBroadcast[1]) != 2 {
		t.Fatalf("automaton = %#v", sc.Automaton)
	}
	if sc.Oracle != nil || sc.OracleFor == nil {
		t.Fatal("per_seed oracle is not built per seed")
	}
	if got, want := sc.OracleFor(9), (fd.EventuallyPerfect{GST: 100, Delay: 3, Seed: 9, FalseRate: 10}); got != want {
		t.Fatalf("OracleFor(9) = %#v, want %#v", got, want)
	}
	r := sc.Run(9)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if err := abcast.CheckTotalOrder(r.Trace); err != nil {
		t.Fatal(err)
	}
}
