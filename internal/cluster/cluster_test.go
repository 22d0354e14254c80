package cluster

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"realisticfd/internal/scenario"
	"realisticfd/internal/transport"
)

// childEnv flags the re-exec: when set, the test binary is not a test
// run at all but one cluster node reading its config from stdin —
// exactly what cmd/fdnode does, so the process-spawner test exercises
// real fork/exec, real signals, real sockets without needing a
// prebuilt binary on the test host.
const childEnv = "FDNODE_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := RunNodeStdin(os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeSpec loads the checked-in smoke schedule CI also runs: two of 16
// nodes SIGKILLed at t0, one paused across the partition window, one
// boundary partitioned and healed, with bound_ms turning the run into
// an assertion.
func smokeSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Load("../../examples/scenarios/smoke16.json")
	if err != nil {
		t.Fatal(err)
	}
	return &spec
}

// liveSpec builds a cluster run on the chord overlay: a busy protocol
// and a perfect oracle for the simulator's share of the spec, the
// horizon at the last action.
func liveSpec(name string, n int, live scenario.LiveParams, plan ...scenario.ActionSpec) *scenario.Spec {
	horizon := int64(1)
	for _, a := range plan {
		horizon = max(horizon, a.At)
	}
	return &scenario.Spec{
		Schema:   scenario.SchemaV3,
		Name:     name,
		N:        n,
		Horizon:  horizon,
		Protocol: scenario.ProtocolSpec{Kind: scenario.ProtocolBusy},
		Oracle:   scenario.OracleSpec{Kind: scenario.OraclePerfect},
		Topology: scenario.TopologySpec{Kind: scenario.TopologyChord},
		Plan:     plan,
		Live:     &live,
	}
}

// TestInProcClusterKillPartitionHeal is the full fault schedule
// against goroutine nodes: the same runtime as real processes, in one
// address space so the race detector sees everything.
func TestInProcClusterKillPartitionHeal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{
		Scenario:     smokeSpec(t),
		Spawner:      InProcSpawner{},
		Seed:         1,
		IncludePairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("assertions failed:\n%s", strings.Join(res.Failures, "\n"))
	}
	if res.Reports != 14 || res.Expected != 14 {
		t.Fatalf("reports %d/%d, want 14/14", res.Reports, res.Expected)
	}
	if len(res.Kills) != 2 {
		t.Fatalf("kill summaries: %+v", res.Kills)
	}
	for _, kr := range res.Kills {
		if kr.Detected != kr.Observers || kr.Observers != 14 {
			t.Fatalf("killed node %d: detected by %d/%d", kr.Target, kr.Detected, kr.Observers)
		}
		if kr.MaxDetectionMs <= 0 || kr.MaxDetectionMs > 2500 {
			t.Fatalf("killed node %d: max T_D %.0fms outside (0, 2500]", kr.Target, kr.MaxDetectionMs)
		}
	}
	// The paused node healed everywhere.
	for _, pr := range res.Pauses {
		if len(pr.SuspectedAtEndBy) != 0 {
			t.Fatalf("resumed node %d still suspected by %v", pr.Target, pr.SuspectedAtEndBy)
		}
	}
	// The whole point of the gossip overlay: per-node heartbeat
	// fan-out stays at the overlay degree, which is O(log n).
	logBound := 2 * int(math.Ceil(math.Log2(float64(res.N))))
	if res.OverlayDegree > logBound {
		t.Fatalf("overlay degree %d exceeds 2⌈log2 %d⌉ = %d", res.OverlayDegree, res.N, logBound)
	}
	if res.MaxDistinctDestinations > res.OverlayDegree {
		t.Fatalf("fan-out %d exceeds overlay degree %d", res.MaxDistinctDestinations, res.OverlayDegree)
	}
	if len(res.Pairs) != 14*15 {
		t.Fatalf("pair matrix has %d entries, want %d", len(res.Pairs), 14*15)
	}
}

// TestProcClusterKillPauseResume re-execs this test binary as real
// node processes and delivers the faults as signals: SIGKILL is a
// real crash, SIGSTOP a real freeze the victim cannot refuse.
func TestProcClusterKillPauseResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	spec := liveSpec("proc-smoke", 8, scenario.LiveParams{
		IntervalMs: 25,
		Estimator:  scenario.LiveEstimatorSpec{Kind: scenario.LiveEstFixed, TimeoutMs: 300},
		WarmupMs:   800,
		SettleMs:   1500,
		BoundMs:    3000,
	},
		scenario.ActionSpec{At: 0, Action: "kill", Nodes: []int{2}},
		scenario.ActionSpec{At: 100, Action: "pause", Nodes: []int{4}},
		scenario.ActionSpec{At: 800, Action: "resume", Nodes: []int{4}},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{
		Scenario: spec,
		Spawner:  &ProcSpawner{Command: []string{os.Args[0]}, Env: []string{childEnv + "=1"}, Stderr: os.Stderr},
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("assertions failed:\n%s", strings.Join(res.Failures, "\n"))
	}
	if res.Reports != 7 {
		t.Fatalf("reports %d, want 7", res.Reports)
	}
	if len(res.Kills) != 1 || res.Kills[0].Detected != 7 {
		t.Fatalf("kill summary: %+v", res.Kills)
	}
}

// wedgeSpawner runs the designated nodes as control-channel zombies:
// it says hello, accepts its topology, then never answers anything —
// the shape of a wedged process. The orchestrator must fail the run
// within CollectTimeout, not hang.
type wedgeSpawner struct {
	inner  InProcSpawner
	wedged []int
}

type wedgeHandle struct {
	conn net.Conn
	done chan struct{}
}

func (h *wedgeHandle) Kill() error   { _ = h.conn.Close(); return nil }
func (h *wedgeHandle) Pause() error  { return nil }
func (h *wedgeHandle) Resume() error { return nil }
func (h *wedgeHandle) Shutdown() {
	_ = h.conn.Close()
	<-h.done
}

func (w *wedgeSpawner) Spawn(cfg NodeConfig) (NodeHandle, error) {
	if !slices.Contains(w.wedged, cfg.ID) {
		return w.inner.Spawn(cfg)
	}
	conn, err := net.Dial("tcp", cfg.ControlAddr)
	if err != nil {
		return nil, err
	}
	h := &wedgeHandle{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		// A data-plane address nobody answers at: peers' sends to the
		// wedge are silently lost, like frames into a dead NIC.
		_ = transport.WriteJSON(conn, ctlMsg{Kind: ctlHello, ID: cfg.ID, Addr: "127.0.0.1:1"})
		for {
			var m ctlMsg
			if err := transport.ReadJSON(conn, &m); err != nil {
				return
			}
		}
	}()
	return h, nil
}

// TestOrchestratorFailsFastOnWedge pins the CI-critical property:
// nodes that stop responding fail the run within the collect timeout
// instead of hanging it, each named once, in node-ID order.
func TestOrchestratorFailsFastOnWedge(t *testing.T) {
	spec := liveSpec("wedge", 8, scenario.LiveParams{
		IntervalMs: 25,
		Estimator:  scenario.LiveEstimatorSpec{Kind: scenario.LiveEstFixed, TimeoutMs: 300},
		WarmupMs:   300,
		SettleMs:   300,
	},
		scenario.ActionSpec{At: 0, Action: "kill", Nodes: []int{3}},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, Config{
		Scenario:       spec,
		Spawner:        &wedgeSpawner{wedged: []int{5, 8}},
		CollectTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("wedged run took %v, should fail fast", elapsed)
	}
	want := []string{"node 5: no report within 2s", "node 8: no report within 2s"}
	if !slices.Equal(res.Failures, want) {
		t.Fatalf("failures %q, want %q", res.Failures, want)
	}
	if res.Reports != 5 {
		t.Fatalf("reports %d, want 5 (everyone but the corpse and the wedges)", res.Reports)
	}
}

// badHelloSpawner's node 1 dials the control listener and says hello
// with an ID outside [1, n]; the other nodes never dial at all.
type badHelloSpawner struct{ id int }

type badHelloHandle struct{ conn net.Conn }

func (h *badHelloHandle) Kill() error   { return nil }
func (h *badHelloHandle) Pause() error  { return nil }
func (h *badHelloHandle) Resume() error { return nil }
func (h *badHelloHandle) Shutdown() {
	if h.conn != nil {
		_ = h.conn.Close()
	}
}

func (s badHelloSpawner) Spawn(cfg NodeConfig) (NodeHandle, error) {
	if cfg.ID != 1 {
		return &badHelloHandle{}, nil
	}
	conn, err := net.Dial("tcp", cfg.ControlAddr)
	if err != nil {
		return nil, err
	}
	return &badHelloHandle{conn: conn}, transport.WriteJSON(conn, ctlMsg{Kind: ctlHello, ID: s.id, Addr: "127.0.0.1:1"})
}

// TestOrchestratorRefusesOutOfRangeHello: a hello whose ID names no
// node of the spec fails the run with the bad-hello error, before the
// orchestrator indexes its per-node state with that ID.
func TestOrchestratorRefusesOutOfRangeHello(t *testing.T) {
	const n = 8
	for _, id := range []int{n + 1, 0} {
		spec := liveSpec("bad-hello", n, scenario.LiveParams{IntervalMs: 25})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err := Run(ctx, Config{Scenario: spec, Spawner: badHelloSpawner{id: id}})
		cancel()
		want := fmt.Sprintf("cluster: bad hello (kind %q, id %d)", ctlHello, id)
		if err == nil || err.Error() != want {
			t.Fatalf("hello with id %d: error %v, want %q", id, err, want)
		}
	}
}

// failSpawner fails the test if the orchestrator spawns anything.
type failSpawner struct{ t *testing.T }

func (s failSpawner) Spawn(cfg NodeConfig) (NodeHandle, error) {
	s.t.Errorf("spawned node %d", cfg.ID)
	return nil, fmt.Errorf("nothing may spawn here")
}

// TestRunRefusesNonBusyProtocols: the live cluster runs the busy
// protocol only. Every other kind scenario.Validate accepts is refused
// by name, by CheckProtocol, newRun and Run alike, before the control
// listener opens (newRun hands back no run to close) or a node spawns.
func TestRunRefusesNonBusyProtocols(t *testing.T) {
	protocols := []scenario.ProtocolSpec{
		{Kind: scenario.ProtocolBusy},
		{Kind: scenario.ProtocolSFlooding},
		{Kind: scenario.ProtocolRotating},
		{Kind: scenario.ProtocolMarabout},
		{Kind: scenario.ProtocolPartialOrder},
		{Kind: scenario.ProtocolTRB, Waves: 1},
		{Kind: scenario.ProtocolReduction, MaxInstances: 1},
		{Kind: scenario.ProtocolAbcast, MaxInstances: 1},
	}
	for _, p := range protocols {
		spec := liveSpec("refuse-"+p.Kind, 8, scenario.LiveParams{IntervalMs: 25},
			scenario.ActionSpec{At: 100, Action: "kill", Nodes: []int{2}})
		spec.Protocol = p
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: the simulator refuses the spec: %v", p.Kind, err)
		}
		cfg := Config{Scenario: spec, Spawner: failSpawner{t}}
		r, err := newRun(cfg)
		if p.Kind == scenario.ProtocolBusy {
			if err != nil {
				t.Fatalf("busy refused: %v", err)
			}
			r.close()
			continue
		}
		name := fmt.Sprintf("%q", p.Kind)
		if r != nil {
			r.close()
		}
		if err == nil || r != nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: newRun = %v, %v; want no run and an error naming %s", p.Kind, r, err, name)
		}
		if cerr := CheckProtocol(spec); cerr == nil || err == nil || cerr.Error() != err.Error() {
			t.Errorf("%s: CheckProtocol = %v, newRun = %v; want the same error", p.Kind, cerr, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := Run(ctx, cfg)
		cancel()
		if err == nil || res != nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Run = %v, %v; want an error naming %s", p.Kind, res, err, name)
		}
	}
}

// churnSpec is a /v3 spec exercising every fault axis the live
// interpreter knows at once: seeded drop, a kill, a partition window,
// and a mid-run joiner — with bound_ms turning join adoption and kill
// detection into assertions.
func churnSpec() scenario.Spec {
	return scenario.Spec{
		Schema:   scenario.SchemaV3,
		Name:     "churn",
		N:        12,
		Horizon:  2000,
		Seeds:    scenario.SeedSpec{From: 0, To: 0},
		Protocol: scenario.ProtocolSpec{Kind: scenario.ProtocolBusy},
		Oracle:   scenario.OracleSpec{Kind: scenario.OraclePerfect, Delay: 2},
		Topology: scenario.TopologySpec{Kind: scenario.TopologyChord},
		Plan: []scenario.ActionSpec{
			{At: 0, Action: "drop", Pct: 10},
			{At: 0, Action: "kill", Nodes: []int{3}},
			{At: 200, Action: "cut", Side: []int{1, 2}},
			{At: 500, Action: "heal"},
			{At: 600, Action: "join", Nodes: []int{12}},
		},
		Live: &scenario.LiveParams{
			IntervalMs: 25,
			Estimator:  scenario.LiveEstimatorSpec{Kind: scenario.LiveEstFixed, TimeoutMs: 300},
			WarmupMs:   800,
			SettleMs:   1500,
			BoundMs:    3000,
		},
	}
}

// TestInProcClusterJoinConvergence runs the /v3 churn spec against
// goroutine nodes: node 12 is spawned mid-run under a 10% seeded drop
// rate, and within the settle window (60 gossip rounds) every survivor
// must carry its counters (gossip adoption) and have grown its
// membership view to include it — the end-to-end churn axis.
func TestInProcClusterJoinConvergence(t *testing.T) {
	spec := churnSpec()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{
		Scenario: &spec,
		Spawner:  InProcSpawner{},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("assertions failed:\n%s", strings.Join(res.Failures, "\n"))
	}
	// 12 nodes, one killed: 11 survivors report — including the joiner.
	if res.Reports != 11 || res.Expected != 11 {
		t.Fatalf("reports %d/%d, want 11/11", res.Reports, res.Expected)
	}
	if !strings.HasPrefix(res.PlanDigest, "sha256:") {
		t.Fatalf("plan digest %q", res.PlanDigest)
	}
	if len(res.Joins) != 1 {
		t.Fatalf("join summaries: %+v", res.Joins)
	}
	jr := res.Joins[0]
	if jr.Target != 12 || jr.AtMs != 600 || jr.Observers != 10 {
		t.Fatalf("join summary: %+v", jr)
	}
	if jr.KnownBy != jr.Observers {
		t.Fatalf("joiner in gossip state of %d/%d survivors", jr.KnownBy, jr.Observers)
	}
	if jr.InViewOf != jr.Observers {
		t.Fatalf("joiner in membership view of %d/%d survivors", jr.InViewOf, jr.Observers)
	}
	// The killed node is detected by everyone who coexisted with it —
	// the joiner is exempt, it was born after the corpse went cold.
	if len(res.Kills) != 1 || res.Kills[0].Observers != 10 || res.Kills[0].Detected != 10 {
		t.Fatalf("kill summary: %+v", res.Kills)
	}
	// The seeded drop hook actually ran: frames flowed and some died.
	if res.FramesSent == 0 || res.FramesDropped == 0 {
		t.Fatalf("fault hook idle: sent=%d dropped=%d", res.FramesSent, res.FramesDropped)
	}
}

// TestInProcClusterFaultDeterminism pins the seeded-loss contract: two
// runs with the same seed make identical per-link drop/delay verdicts.
// Wall-clock frame counts differ between runs, so the comparison is
// over the common prefix of each link's recorded decision bitmap —
// verdicts are a pure function of (seed, sender, dest, frame index).
func TestInProcClusterFaultDeterminism(t *testing.T) {
	spec := scenario.Spec{
		Schema:   scenario.SchemaV3,
		Name:     "det",
		N:        6,
		Horizon:  1000,
		Seeds:    scenario.SeedSpec{From: 0, To: 0},
		Protocol: scenario.ProtocolSpec{Kind: scenario.ProtocolBusy},
		Oracle:   scenario.OracleSpec{Kind: scenario.OraclePerfect, Delay: 2},
		Topology: scenario.TopologySpec{Kind: scenario.TopologyChord},
		Plan: []scenario.ActionSpec{
			{At: 0, Action: "drop", Pct: 30},
			{At: 0, Action: "delay", Bound: 2},
		},
		Live: &scenario.LiveParams{
			IntervalMs: 20,
			Estimator:  scenario.LiveEstimatorSpec{Kind: scenario.LiveEstFixed, TimeoutMs: 400},
			WarmupMs:   300,
			SettleMs:   600,
		},
	}
	run := func() *Result {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := Run(ctx, Config{
			Scenario:              &spec,
			Spawner:               InProcSpawner{},
			Seed:                  11,
			CollectFaultDecisions: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reports != 6 {
			t.Fatalf("reports %d, want 6", res.Reports)
		}
		if res.FramesDropped == 0 {
			t.Fatal("30%% drop rate dropped nothing")
		}
		return res
	}
	a, b := run(), run()
	if a.PlanDigest == "" || a.PlanDigest != b.PlanDigest {
		t.Fatalf("plan digests diverge: %q vs %q", a.PlanDigest, b.PlanDigest)
	}
	links, drops := 0, 0
	for id, ra := range a.NodeReports {
		rb := b.NodeReports[id]
		if rb == nil {
			t.Fatalf("node %d reported in run A only", id)
		}
		for dest, da := range ra.FaultDecisions {
			db := rb.FaultDecisions[dest]
			common := len(da)
			if len(db) < common {
				common = len(db)
			}
			if common == 0 {
				t.Fatalf("link %d→%d: no common decision prefix (%d vs %d frames)", id, dest, len(da), len(db))
			}
			links++
			for i := 0; i < common; i++ {
				if da[i] != db[i] {
					t.Fatalf("link %d→%d: verdict %d diverges between runs", id, dest, i)
				}
				if da[i] {
					drops++
				}
			}
		}
	}
	if links == 0 {
		t.Fatal("no decision bitmaps collected")
	}
	if drops == 0 {
		t.Fatal("common prefixes contain no drops — determinism untested")
	}
}

func TestEstimatorFactoryKinds(t *testing.T) {
	interval := 50 * time.Millisecond
	cases := []struct {
		spec scenario.LiveEstimatorSpec
		want string
	}{
		{scenario.LiveEstimatorSpec{Kind: scenario.LiveEstFixed, TimeoutMs: 700}, "fixed(700ms)"},
		{scenario.LiveEstimatorSpec{Kind: scenario.LiveEstChen}, "chen(w=16,α=200ms)"},
		{scenario.LiveEstimatorSpec{}, "phi(w=64,Φ=8.0)"},
	}
	for _, tc := range cases {
		if got := EstimatorFactory(tc.spec, interval)().Name(); got != tc.want {
			t.Errorf("EstimatorFactory(%+v) built %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	base := NodeConfig{ID: 1, N: 4, ControlAddr: "127.0.0.1:9", IntervalMs: 10, SamplePeriodMs: 10}
	if err := base.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []NodeConfig{
		{ID: 0, N: 4, ControlAddr: "x", IntervalMs: 10, SamplePeriodMs: 10},
		{ID: 5, N: 4, ControlAddr: "x", IntervalMs: 10, SamplePeriodMs: 10},
		{ID: 1, N: 1, ControlAddr: "x", IntervalMs: 10, SamplePeriodMs: 10},
		{ID: 1, N: 4, ControlAddr: "", IntervalMs: 10, SamplePeriodMs: 10},
		{ID: 1, N: 4, ControlAddr: "x", IntervalMs: 0, SamplePeriodMs: 10},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}
