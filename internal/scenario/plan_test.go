package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// v3Spec is a well-formed /v3 spec exercising every plan verb, used
// (and perturbed) by the plan tests.
func v3Spec() Spec {
	return Spec{
		Schema:   SchemaV3,
		Name:     "v3-test",
		N:        6,
		Horizon:  2000,
		Seeds:    SeedSpec{From: 0, To: 4},
		Protocol: ProtocolSpec{Kind: ProtocolBusy},
		Oracle:   OracleSpec{Kind: OraclePerfect, Delay: 2},
		Plan: []ActionSpec{
			{At: 0, Action: "drop", Pct: 10},
			{At: 100, Action: "delay", Bound: 4},
			{At: 200, Action: "cut", Side: []int{1, 2}},
			{At: 400, Action: "heal"},
			{At: 500, Action: "pause", Nodes: []int{3}},
			{At: 700, Action: "resume", Nodes: []int{3}},
			{At: 800, Action: "kill", Nodes: []int{4}},
			{At: 900, Action: "leave", Nodes: []int{5}},
			{At: 600, Action: "join", Nodes: []int{6}},
		},
	}
}

const v3JSON = `{
  "schema": "fdspec/v3",
  "name": "v3-test",
  "n": 4,
  "horizon": 1000,
  "seeds": {"from": 0, "to": 2},
  "protocol": {"kind": "busy"},
  "oracle": {"kind": "perfect", "delay": 2},
  "plan": [
    {"at": 0, "action": "drop", "pct": 5},
    {"at": 100, "action": "cut", "cut": [[1, 2]]},
    {"at": 200, "action": "heal", "cut": [[1, 2]]},
    {"at": 300, "action": "join", "nodes": [4]}
  ],
  "live": {"interval_ms": 40, "bound_ms": 3000}
}`

// TestV3ParseAndCompile pins the happy path: a /v3 document parses
// strictly, its live defaults normalize, and CompilePlan resolves the
// timeline with churn indexed.
func TestV3ParseAndCompile(t *testing.T) {
	t.Parallel()
	s, err := Parse([]byte(v3JSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Live.SamplePeriodMs != 40 || s.Live.WarmupMs != 1000 || s.Live.SettleMs != 2000 || s.Live.Estimator.Kind != LiveEstPhi {
		t.Fatalf("live defaults not normalized: %+v", s.Live)
	}
	plan, err := s.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Actions) != 4 {
		t.Fatalf("plan = %+v", plan)
	}
	if at, ok := plan.Joins[4]; !ok || at != 300 {
		t.Fatalf("join of node 4 not indexed: %+v", plan.Joins)
	}
	if !plan.Joiner(4) || plan.Joiner(1) {
		t.Fatal("Joiner misreports")
	}

	full, err := v3Spec().CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Actions) != 9 {
		t.Fatalf("got %d actions", len(full.Actions))
	}
	// Actions come out time-sorted: the join at 600 precedes the kill.
	for i := 1; i < len(full.Actions); i++ {
		if full.Actions[i-1].At > full.Actions[i].At {
			t.Fatalf("actions not sorted by At: %+v", full.Actions)
		}
	}
	if full.Kills[4] != 800 || full.Leaves[5] != 900 || full.Joins[6] != 600 {
		t.Fatalf("churn indexes wrong: kills=%v leaves=%v joins=%v", full.Kills, full.Leaves, full.Joins)
	}
	// The side cut at 200 resolved against the complete topology: the
	// boundary {1,2} crosses to {3..6}, 2·4 = 8 edges.
	for _, a := range full.Actions {
		if a.Kind == ActCut && len(a.Edges) != 8 {
			t.Fatalf("side cut resolved to %d edges, want 8", len(a.Edges))
		}
	}
}

// TestCrashesCompileToKills pins that the crashes field reaches both
// backends through the timeline: each crash is a kill at its instant,
// indexed in Kills, even past the horizon, and a plan kill of a
// crashing process is still refused.
func TestCrashesCompileToKills(t *testing.T) {
	t.Parallel()
	s, err := Load("../../examples/scenarios/lossy-consensus.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	kill := PlanAction{At: 60, Kind: ActKill, Nodes: []int{2}}
	if len(plan.Actions) != 3 || fmt.Sprint(plan.Actions[2]) != fmt.Sprint(kill) || plan.Kills[2] != 60 {
		t.Fatalf("crash of node 2 at 60 not compiled to a kill: actions %+v, kills %v", plan.Actions, plan.Kills)
	}

	late := s
	late.Crashes = append(slices.Clone(s.Crashes), CrashSpec{Process: 3, At: s.Horizon + 10})
	if plan, err = late.CompilePlan(); err != nil {
		t.Fatalf("a crash past the horizon: %v", err)
	}
	if last := plan.Actions[len(plan.Actions)-1]; last.Kind != ActKill || last.At != s.Horizon+10 || plan.Kills[3] != s.Horizon+10 {
		t.Fatalf("crash past the horizon not compiled to a kill: %+v", plan.Actions)
	}

	twice := s
	twice.Plan = append(slices.Clone(s.Plan), ActionSpec{At: 10, Action: "kill", Nodes: []int{2}})
	if _, err := twice.CompilePlan(); err == nil || !strings.Contains(err.Error(), "node 2 is already gone") {
		t.Fatalf("plan kill of a crashing process: error %v, want one saying it is already gone", err)
	}
}

// TestResolveEdges pins how a cut or heal selects overlay edges: a side
// boundary becomes every edge crossing it, in overlay order, an
// explicit cut passes through canonicalized, and a bare heal resolves
// to every severed edge in the order they were cut — here the side's
// crossing edges, which already include the explicit cut's.
func TestResolveEdges(t *testing.T) {
	t.Parallel()
	s := v3Spec()
	s.Topology = TopologySpec{Kind: TopologyChord}
	s.Plan = []ActionSpec{
		{At: 100, Action: "cut", Side: []int{5, 2}},
		{At: 200, Action: "cut", Cut: [][2]int{{3, 2}}},
		{At: 300, Action: "heal"},
	}
	plan, err := s.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	side, cut, heal := plan.Actions[0].Edges, plan.Actions[1].Edges, plan.Actions[2].Edges
	inSide := map[int]bool{2: true, 5: true}
	var crossing [][2]int
	for _, e := range plan.Overlay {
		if inSide[int(e.A)] != inSide[int(e.B)] {
			crossing = append(crossing, [2]int{int(e.A), int(e.B)})
		}
	}
	if len(crossing) == 0 || fmt.Sprint(side) != fmt.Sprint(crossing) {
		t.Fatalf("side boundary resolved to %v, want the crossing overlay edges %v", side, crossing)
	}
	if len(cut) != 1 || cut[0] != [2]int{2, 3} {
		t.Fatalf("explicit cut resolved to %v, want [[2 3]]", cut)
	}
	if fmt.Sprint(heal) != fmt.Sprint(crossing) {
		t.Fatalf("bare heal resolved to %v, want every severed edge %v", heal, crossing)
	}
}

// TestV3Rejections walks the plan validator's error paths.
func TestV3Rejections(t *testing.T) {
	t.Parallel()
	cases := []struct {
		label   string
		mangle  func(Spec) Spec
		wantErr string
	}{
		{"plan without v3 schema", func(s Spec) Spec { s.Schema = ""; return s }, "require schema"},
		{"live without v3 schema", func(s Spec) Spec {
			s.Schema = ""
			s.Plan = nil
			s.Live = &LiveParams{IntervalMs: 40}
			return s
		}, "require schema"},
		{"unknown schema", func(s Spec) Spec { s.Schema = "fdspec/v9"; return s }, "unknown"},
		{"unknown action", func(s Spec) Spec { s.Plan[0].Action = "detonate"; return s }, `unknown action "detonate"`},
		{"negative at", func(s Spec) Spec { s.Plan[0].At = -1; return s }, "non-negative"},
		{"beyond horizon", func(s Spec) Spec { s.Plan[0].At = 9999; return s }, "beyond the horizon"},
		{"drop out of range", func(s Spec) Spec { s.Plan[0].Pct = 130; return s }, "outside [0, 100]"},
		{"negative delay bound", func(s Spec) Spec { s.Plan[1].Bound = -2; return s }, "non-negative"},
		{"kill without nodes", func(s Spec) Spec { s.Plan[6].Nodes = nil; return s }, "kill needs nodes"},
		{"kill with pct", func(s Spec) Spec { s.Plan[6].Pct = 5; return s }, "takes nodes only"},
		{"cut with both side and cut", func(s Spec) Spec {
			s.Plan[2].Cut = [][2]int{{1, 3}}
			return s
		}, "exactly one of side and cut"},
		{"cut of nonexistent edge", func(s Spec) Spec {
			s.Topology = TopologySpec{Kind: TopologyRing}
			s.Plan[2] = ActionSpec{At: 200, Action: "cut", Cut: [][2]int{{1, 3}}}
			return s
		}, "does not exist in the ring topology"},
		{"cut whose side is every node", func(s Spec) Spec {
			s.Plan[2].Side = []int{1, 2, 3, 4, 5, 6}
			return s
		}, "side boundary severs no overlay edge"},
		{"heal whose side severs no edge", func(s Spec) Spec {
			s.Plan[3].Side = []int{6, 5, 4, 3, 2, 1}
			return s
		}, "side boundary severs no overlay edge"},
		{"node out of range", func(s Spec) Spec { s.Plan[6].Nodes = []int{7}; return s }, "outside [1, 6]"},
		{"double kill", func(s Spec) Spec {
			s.Plan = append(s.Plan, ActionSpec{At: 850, Action: "kill", Nodes: []int{4}})
			return s
		}, "already gone"},
		{"kill of v2 crash victim", func(s Spec) Spec {
			s.Crashes = []CrashSpec{{Process: 4, At: 10}}
			return s
		}, "already gone"},
		{"pause after kill", func(s Spec) Spec {
			s.Plan = append(s.Plan, ActionSpec{At: 850, Action: "pause", Nodes: []int{4}})
			return s
		}, "paused after its departure"},
		{"resume without pause", func(s Spec) Spec {
			s.Plan = append(s.Plan, ActionSpec{At: 750, Action: "resume", Nodes: []int{2}})
			return s
		}, "resumed without a pause"},
		{"double join", func(s Spec) Spec {
			s.Plan = append(s.Plan, ActionSpec{At: 650, Action: "join", Nodes: []int{6}})
			return s
		}, "joins twice"},
		{"action on joiner before join", func(s Spec) Spec {
			s.Plan = append(s.Plan, ActionSpec{At: 100, Action: "pause", Nodes: []int{6}})
			return s
		}, "before its join"},
		{"joiner also crashes via v2 field", func(s Spec) Spec {
			s.Crashes = []CrashSpec{{Process: 6, At: 10}}
			return s
		}, "crashes via the crashes field"},
		{"live negative duration", func(s Spec) Spec {
			s.Live = &LiveParams{WarmupMs: -1}
			return s
		}, "non-negative"},
		{"live bad estimator", func(s Spec) Spec {
			s.Live = &LiveParams{Estimator: LiveEstimatorSpec{Kind: "ouija"}}
			return s
		}, `unknown kind "ouija"`},
		{"bound with a node paused at collection", func(s Spec) Spec {
			s.Live = &LiveParams{BoundMs: 3000}
			s.Plan = append(s.Plan, ActionSpec{At: 950, Action: "pause", Nodes: []int{2}})
			return s
		}, "stay paused"},
	}
	for _, c := range cases {
		s := c.mangle(v3Spec())
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.label)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.label, err, c.wantErr)
		}
	}
	if err := v3Spec().Validate(); err != nil {
		t.Fatalf("valid v3 spec rejected: %v", err)
	}
}

// liveJSON is a live-cluster spec shaped like the smoke run: a chord
// overlay, a live block and a kill/pause/cut/resume/heal schedule.
const liveJSON = `{
  "schema": "fdspec/v3",
  "name": "smoke",
  "n": 16,
  "horizon": 2000,
  "seeds": {"from": 0, "to": 1},
  "protocol": {"kind": "busy"},
  "oracle": {"kind": "perfect"},
  "topology": {"kind": "chord"},
  "plan": [
    {"at": 0, "action": "kill", "nodes": [3, 7]},
    {"at": 100, "action": "pause", "nodes": [5]},
    {"at": 400, "action": "cut", "side": [1, 2]},
    {"at": 900, "action": "resume", "nodes": [5]},
    {"at": 1200, "action": "heal"}
  ],
  "live": {"estimator": {"kind": "phi", "phi": 8}}
}`

// TestLivePlanRejections holds a live cluster's schedule to every rule
// the cluster relies on: the v3 plan validator is the only one it has.
func TestLivePlanRejections(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		edit func(s *Spec)
		want string
	}{
		{"tiny n", func(s *Spec) { s.N = 1 }, "must be ≥ 2"},
		{"unknown action", func(s *Spec) { s.Plan[0].Action = "reboot" }, "unknown action"},
		{"kill without nodes", func(s *Spec) { s.Plan[0].Nodes = nil }, "needs nodes"},
		{"node out of range", func(s *Spec) { s.Plan[0].Nodes = []int{99} }, "outside"},
		{"double kill", func(s *Spec) {
			s.Plan = append(s.Plan, ActionSpec{At: 50, Action: "kill", Nodes: []int{3}})
		}, "already gone"},
		{"resume without pause", func(s *Spec) {
			s.Plan = []ActionSpec{{At: 0, Action: "resume", Nodes: []int{5}}}
		}, "without a pause"},
		{"pause after kill", func(s *Spec) {
			s.Plan = []ActionSpec{
				{At: 0, Action: "kill", Nodes: []int{5}},
				{At: 10, Action: "pause", Nodes: []int{5}},
			}
		}, "paused after its departure"},
		{"partition needs one selector", func(s *Spec) {
			s.Plan[2].Cut = [][2]int{{1, 2}}
		}, "exactly one of side and cut"},
		{"cut edge not in overlay", func(s *Spec) {
			// chord(16) links 1 to 2,3,5,9 (±2^j); 1—7 is not an edge.
			s.Plan[2].Side = nil
			s.Plan[2].Cut = [][2]int{{1, 7}}
		}, "does not exist"},
		{"bound with stuck pause", func(s *Spec) {
			s.Live.BoundMs = 1000
			s.Plan = []ActionSpec{{At: 0, Action: "pause", Nodes: []int{5}}}
		}, "stay paused"},
		{"negative at", func(s *Spec) { s.Plan[0].At = -1 }, "non-negative"},
		{"fixed without timeout", func(s *Spec) {
			s.Live.Estimator = LiveEstimatorSpec{Kind: LiveEstFixed}
		}, "timeout_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(liveJSON))
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&s)
			err = s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestLiveSpecParseAndDefaults: a live block that names only its
// estimator comes out of Parse with the cadence, warmup and settle
// defaults spelled out, and the estimator as written.
func TestLiveSpecParseAndDefaults(t *testing.T) {
	t.Parallel()
	s, err := Parse([]byte(liveJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Live == nil {
		t.Fatal("live block dropped")
	}
	if s.Topology.Kind != TopologyChord {
		t.Fatalf("topology = %q, want chord", s.Topology.Kind)
	}
	if s.Live.IntervalMs != 50 || s.Live.SamplePeriodMs != 50 {
		t.Fatalf("default cadence = %d/%d, want 50/50", s.Live.IntervalMs, s.Live.SamplePeriodMs)
	}
	if s.Live.WarmupMs != 1000 || s.Live.SettleMs != 2000 {
		t.Fatalf("default warmup/settle = %d/%d, want 1000/2000", s.Live.WarmupMs, s.Live.SettleMs)
	}
	if s.Live.Estimator.Kind != LiveEstPhi || s.Live.Estimator.Phi != 8 {
		t.Fatalf("estimator = %+v, want phi 8", s.Live.Estimator)
	}
}

// TestLiveSpecStrictParsing: an unknown field inside the live block and
// a trailing document after a live spec are both rejected.
func TestLiveSpecStrictParsing(t *testing.T) {
	t.Parallel()
	bogus := strings.Replace(liveJSON, `"live": {`, `"live": {"bogus": 1, `, 1)
	if bogus == liveJSON {
		t.Fatal("fixture has no live block to edit")
	}
	if _, err := Parse([]byte(bogus)); err == nil {
		t.Fatal("unknown live field was not rejected")
	}
	if _, err := Parse([]byte(liveJSON + ` {}`)); err == nil {
		t.Fatal("trailing document was not rejected")
	}
}

// TestSpecSizeLimits pins where the simulator's 64-process cap lives: a
// live spec of any size parses and compiles its plan, and only Build,
// the simulator lowering, refuses it.
func TestSpecSizeLimits(t *testing.T) {
	t.Parallel()
	for _, n := range []int{65, 200} {
		doc := strings.Replace(liveJSON, `"n": 16`, fmt.Sprintf(`"n": %d`, n), 1)
		s, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		plan, err := s.CompilePlan()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if plan.N != n || len(plan.Actions) != len(s.Plan) {
			t.Fatalf("n=%d: plan = %+v", n, plan)
		}
		if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "64-process cap") {
			t.Fatalf("n=%d: Build error %v, want one naming the 64-process cap", n, err)
		}
	}
}

// TestV2CanonicalUnchangedByV3Fields is the digest-compatibility gate:
// the canonical encoding of a v2 spec must not mention any of the new
// keys, so every pre-existing ConfigDigest is untouched by this
// release.
func TestV2CanonicalUnchangedByV3Fields(t *testing.T) {
	t.Parallel()
	s := validSpec()
	s.Schema, s.Plan = "", nil
	data, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schema"`, `"plan"`, `"live"`} {
		if strings.Contains(string(data), key) {
			t.Fatalf("v2 canonical encoding mentions %s:\n%s", key, data)
		}
	}
}

// TestPlanConstantRateMatchesV2 pins the lowering equivalence: a plan
// that sets drop/delay once at tick 0 replays byte-identically to the
// retired v2 spec with the same constant rates ("faults": {"drop_pct":
// 10, "max_extra_delay": 4}), whose trace digests are pinned here.
func TestPlanConstantRateMatchesV2(t *testing.T) {
	t.Parallel()
	s := Spec{
		Schema:   SchemaV3,
		Name:     "const",
		N:        5,
		Horizon:  800,
		Seeds:    SeedSpec{From: 0, To: 6},
		Protocol: ProtocolSpec{Kind: ProtocolBusy},
		Oracle:   OracleSpec{Kind: OraclePerfect, Delay: 2},
		Plan: []ActionSpec{
			{At: 0, Action: "drop", Pct: 10},
			{At: 0, Action: "delay", Bound: 4},
		},
	}
	v2 := []string{"bb1b4e96f06c658e", "7888f0c5b9011fb9", "e3ca0abb120919ab", "1f6391cc3aa99b54", "aab2c0e40cc62dba", "f19fbc163a32d574"}
	sc := MustBuild(s)
	for i, r := range harness.SeedMap(harness.Seeds(6), 1, func(_ *sim.RunContext, seed int64) harness.Result { return sc.Run(seed) }) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if got := r.Trace.Digest()[:16]; got != v2[i] {
			t.Fatalf("seed %d diverged: plan %s, v2 %s", i, got, v2[i])
		}
	}
}

// TestPlanLowering checks the sim lowering shape: churn and cut/heal
// compile onto the existing LinkFaults/pattern machinery.
func TestPlanLowering(t *testing.T) {
	t.Parallel()
	s := v3Spec()
	sc := MustBuild(s)

	// kill(4)@800 and leave(5)@900 became pattern crashes.
	pat := sc.Pattern()
	if at, ok := pat.CrashTime(4); !ok || at != 800 {
		t.Fatalf("kill not lowered to a crash: %v %v", at, ok)
	}
	if at, ok := pat.CrashTime(5); !ok || at != 900 {
		t.Fatalf("leave not lowered to a crash: %v %v", at, ok)
	}

	if sc.Faults == nil {
		t.Fatal("no faults compiled")
	}
	if len(sc.Faults.DropSteps) != 1 || sc.Faults.DropSteps[0].Pct != 10 {
		t.Fatalf("drop steps = %+v", sc.Faults.DropSteps)
	}
	if len(sc.Faults.DelaySteps) != 1 || sc.Faults.DelaySteps[0].Max != 4 {
		t.Fatalf("delay steps = %+v", sc.Faults.DelaySteps)
	}

	// Expected windows: the side cut [200,400), the pause isolation of
	// node 3 [500,700), and node 6's birth isolation [0,600).
	want := map[[2]model.Time]bool{
		{200, 400}: false,
		{500, 700}: false,
		{0, 600}:   false,
	}
	for _, c := range sc.Faults.Cuts {
		key := [2]model.Time{c.From, c.Until}
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for w, seen := range want {
		if !seen {
			t.Fatalf("no cut with window %v; cuts = %+v", w, sc.Faults.Cuts)
		}
	}

	// An unresumed pause and an unhealed cut stay severed past the
	// horizon.
	s2 := v3Spec()
	s2.Plan = []ActionSpec{
		{At: 100, Action: "cut", Cut: [][2]int{{1, 2}}},
		{At: 300, Action: "pause", Nodes: []int{3}},
	}
	sc2 := MustBuild(s2)
	never := model.Time(s2.Horizon) + 1
	var sawCut, sawPause bool
	for _, c := range sc2.Faults.Cuts {
		if c.From == 100 && c.Until == never {
			sawCut = true
		}
		if c.From == 300 && c.Until == never {
			sawPause = true
		}
	}
	if !sawCut || !sawPause {
		t.Fatalf("permanent windows missing: %+v", sc2.Faults.Cuts)
	}
}

// TestPlanChurnRunCompletes runs the full churn spec end to end over a
// few seeds — the acceptance smoke that drop + partition + churn
// coexist in one sim run.
func TestPlanChurnRunCompletes(t *testing.T) {
	t.Parallel()
	sc := MustBuild(v3Spec())
	for _, r := range harness.SeedMap(harness.Seeds(4), 1, func(_ *sim.RunContext, seed int64) harness.Result { return sc.Run(seed) }) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Trace == nil || len(r.Trace.Events) == 0 {
			t.Fatal("empty trace")
		}
	}
}
