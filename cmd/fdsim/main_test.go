package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realisticfd/internal/consensus"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// TestValidateFlags is the flag table: every bad value must fail in
// prepare — before the first seed — with a one-line error. Range and
// kind errors come from Spec.Build; -faults, -seeds and -chunk errors
// from fdsim itself, which never names an action of the lowered plan.
func TestValidateFlags(t *testing.T) {
	base := []string{"sweep", "-algo", "busy", "-n", "16", "-horizon", "2000"}
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = must pass
	}{
		{"defaults", nil, ""},
		{"sflooding+diamond-s", []string{"-algo", "sflooding", "-fd", "eventually-strong"}, ""},
		{"rotating", []string{"-algo", "rotating"}, ""},
		{"drop boundary low", []string{"-faults", "drop=0"}, ""},
		{"drop boundary high", []string{"-faults", "drop=100"}, ""},
		{"one seed", []string{"-seeds", "1"}, ""},
		{"spaced crash list", []string{"-crash", "p2@40, p5@120"}, ""},
		{"spaced fault list", []string{"-faults", "drop=10, delay=5, part=1+2@40-400"}, ""},
		{"back-to-back partitions", []string{"-faults", "part=3@400-900,part=1+2@40-400"}, ""},
		{"partition healing past the horizon", []string{"-faults", "part=1+2@40-5000"}, ""},

		{"unknown algo", []string{"-algo", "paxos"}, `protocol: unknown kind "paxos"`},
		{"empty algo", []string{"-algo", ""}, "protocol: kind is required"},
		{"unknown fd", []string{"-fd", "psychic"}, `oracle: unknown kind "psychic"`},
		{"drop above 100", []string{"-faults", "drop=150"}, "-faults: drop=150 outside [0, 100]"},
		{"negative drop", []string{"-faults", "drop=-5"}, "-faults: drop=-5 outside [0, 100]"},
		{"negative delay", []string{"-faults", "delay=-1"}, "-faults: delay=-1 must be non-negative"},
		{"zero seeds", []string{"-seeds", "0"}, "-seeds"},
		{"negative seeds", []string{"-seeds", "-100"}, "-seeds"},
		{"negative chunk", []string{"-chunk", "-1"}, "-chunk"},
		{"zero chunk", []string{"-chunk", "0"}, "-chunk"},
		{"zero n", []string{"-n", "0"}, "n = 0"},
		{"n above bitset", []string{"-n", "400"}, "64-process cap"},
		{"zero horizon", []string{"-horizon", "0"}, "horizon = 0"},
		{"negative horizon", []string{"-horizon", "-7"}, "horizon = -7"},
		{"unknown fault", []string{"-faults", "wibble=3"}, `unknown fault "wibble"`},
		{"partition without heal", []string{"-faults", "part=1+2@40"}, "bad part"},
		{"partition side out of range", []string{"-faults", "part=1+17@40-400"}, "-faults: part=1+17@40-400 names process 17 outside [1, 16]"},
		{"partition of every process", []string{"-n", "3", "-faults", "part=3+1+2+1@40-400"}, "-faults: part=3+1+2+1@40-400 names every process"},
		{"partition healing before it starts", []string{"-faults", "part=1+2@400-40"}, "not after it starts"},
		{"partition healing as it starts", []string{"-faults", "part=1+2@40-40"}, "not after it starts"},
		{"overlapping partitions", []string{"-faults", "part=3@300-900,part=1+2@40-400"}, "overlap in time"},
		{"partition starting past the horizon", []string{"-faults", "part=1+2@2500-3000"}, "-faults: part=1+2@2500-3000 starts at 2500, beyond the horizon 2000"},
		{"crash without time", []string{"-crash", "p2"}, "-crash"},
		{"crash out of range", []string{"-crash", "p17@40"}, "process 17 outside"},
		{"crash twice", []string{"-crash", "p2@40,p2@50"}, "crashes twice"},
		{"config flag with spec file", []string{"../../examples/scenarios/smoke16.json"}, "-algo configures a spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := prepare(append(append([]string(nil), base...), tc.args...))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %q passed validation", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if strings.Contains(err.Error(), "action[") {
				t.Errorf("error %q names an action of a plan the flags lower to", err)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("error %q is not one line", err)
			}
		})
	}
}

// TestFaultsFlagLowering pins the plan -faults lowers to: rates from
// tick 0 (none for a zero rate), partitions in time order, each cut
// healed at its until unless that lies past the horizon.
func TestFaultsFlagLowering(t *testing.T) {
	for _, tc := range []struct {
		faults string
		want   []scenario.ActionSpec
	}{
		{"drop=0,delay=0", nil},
		{"delay=5,drop=3,drop=10", []scenario.ActionSpec{
			{Action: "drop", Pct: 10},
			{Action: "delay", Bound: 5},
		}},
		{"part=3@400-2500,part=1+2@40-400", []scenario.ActionSpec{
			{At: 40, Action: "cut", Side: []int{1, 2}},
			{At: 400, Action: "heal", Side: []int{1, 2}},
			{At: 400, Action: "cut", Side: []int{3}},
		}},
	} {
		_, _, srcs, err := prepare([]string{"validate", "-horizon", "2000", "-faults", tc.faults})
		if err != nil {
			t.Fatalf("%s: %v", tc.faults, err)
		}
		spec := srcs[0].spec
		if fmt.Sprint(spec.Plan) != fmt.Sprint(tc.want) {
			t.Errorf("%s: plan %+v, want %+v", tc.faults, spec.Plan, tc.want)
		}
		wantSchema := ""
		if tc.want != nil {
			wantSchema = scenario.SchemaV3
		}
		if spec.Schema != wantSchema {
			t.Errorf("%s: schema %q, want %q", tc.faults, spec.Schema, wantSchema)
		}
	}
}

// TestModesAndSeedFlags pins the mode word and how -seed and -seeds
// shape the seed range of flag-built specs and spec files.
func TestModesAndSeedFlags(t *testing.T) {
	if _, _, _, err := prepare([]string{"replay"}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("unknown mode: err = %v", err)
	}
	if _, _, _, err := prepare([]string{"run", "../../examples/scenarios"}); err == nil || !strings.Contains(err.Error(), "one spec") {
		t.Errorf("run over a directory of specs: err = %v", err)
	}
	mode, _, srcs, err := prepare([]string{"-seed", "9"})
	if err != nil || mode != "run" || srcs[0].spec.Seeds != (scenario.SeedSpec{From: 9, To: 1009}) {
		t.Errorf("default mode with -seed 9: %q %+v, %v", mode, srcs, err)
	}
	smoke := "../../examples/scenarios/smoke16.json"
	for _, tc := range []struct {
		args []string
		want scenario.SeedSpec
	}{
		{nil, scenario.SeedSpec{From: 0, To: 25}},
		{[]string{"-seed", "5"}, scenario.SeedSpec{From: 5, To: 30}},
		{[]string{"-seeds", "3"}, scenario.SeedSpec{From: 0, To: 3}},
		{[]string{"-seed", "5", "-seeds", "3"}, scenario.SeedSpec{From: 5, To: 8}},
	} {
		_, _, srcs, err := prepare(append([]string{"sweep", smoke}, tc.args...))
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := srcs[0].spec.Seeds; got != tc.want {
			t.Errorf("%q: seeds %+v, want %+v", tc.args, got, tc.want)
		}
	}
}

// TestCheckpointNames: a sweep's checkpoint is named after its source
// and its configuration without the seed range, so specs that share a
// file name, and different flag campaigns, keep apart in one
// -checkpoints directory, while a changed seed range of one campaign
// meets its old checkpoint, which Stream then refuses.
func TestCheckpointNames(t *testing.T) {
	data, err := os.ReadFile("../../examples/scenarios/smoke16.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a", "smoke16.json"), filepath.Join(dir, "b", "smoke16.json")
	for path, spec := range map[string]string{
		a: string(data),
		b: strings.Replace(string(data), `"horizon": 2500`, `"horizon": 2600`, 1),
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ckpts := func(args ...string) []string {
		t.Helper()
		_, _, srcs, err := prepare(append([]string{"sweep"}, args...))
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		var paths []string
		for _, src := range srcs {
			path, err := checkpointPath("ckpt", src)
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		return paths
	}

	files := ckpts(a, b, "../../examples/scenarios/smoke16.json")
	if files[0] == files[1] || files[0] != files[2] || filepath.Dir(files[0]) != "ckpt" || !strings.HasPrefix(filepath.Base(files[0]), "smoke16-") {
		t.Errorf("a/smoke16, edited b/smoke16, examples/smoke16: %q", files)
	}
	p2, p3, wider := ckpts("-crash", "p2@40"), ckpts("-crash", "p3@40"), ckpts("-crash", "p2@40", "-seeds", "5000")
	if p2[0] == p3[0] || p2[0] != wider[0] || !strings.HasPrefix(filepath.Base(p2[0]), "flags-") {
		t.Errorf("flag campaigns: p2 %q, p3 %q, p2 over more seeds %q", p2, p3, wider)
	}
	if path, err := checkpointPath("", source{label: "flags"}); path != "" || err != nil {
		t.Errorf("no -checkpoints: %q, %v", path, err)
	}
}

// legacySweepScenario is the scenario the retired sweep command built
// by hand from its flags: the reference the spec-built campaigns must
// reproduce run for run.
func legacySweepScenario(algo, oracle string, n int, horizon int64, crashes [][2]int, drop int, delay int64) harness.Scenario {
	pat := model.MustPattern(n)
	for _, c := range crashes {
		pat.MustCrash(model.ProcessID(c[0]), model.Time(c[1]))
	}
	sc := harness.Scenario{
		Name:    "legacy",
		N:       n,
		Horizon: model.Time(horizon),
		Pattern: func() *model.FailurePattern { return pat.Clone() },
		Policy:  func() sim.Policy { return &sim.RandomFairPolicy{} },
	}
	switch oracle {
	case "perfect":
		sc.Oracle = fd.Perfect{Delay: 2}
	case "diamond-s":
		sc.OracleFor = func(seed int64) fd.Oracle {
			return fd.EventuallyStrong{GST: 100, Delay: 3, Seed: uint64(seed), FalseRate: 10}
		}
	}
	switch algo {
	case "busy":
		sc.Automaton = scenario.BusyAutomaton{}
	case "sflooding":
		sc.Automaton = consensus.SFlooding{Proposals: consensus.DistinctProposals(n)}
		sc.StopWhen = func() func(*sim.Trace) bool { return sim.CorrectDecided(0) }
	case "rotating":
		sc.Automaton = consensus.Rotating{Proposals: consensus.DistinctProposals(n)}
		sc.StopWhen = func() func(*sim.Trace) bool { return sim.CorrectDecided(0) }
	}
	if drop > 0 || delay > 0 {
		sc.Faults = &sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: drop}}, DelaySteps: []sim.DelayStep{{Max: model.Time(delay)}}}
	}
	return sc
}

// TestSweepMatchesLegacyScenario: for each configuration, the sweep
// fdsim builds from its flags folds to the digest of the hand-built
// reference scenario, and both to the digest pinned here over seeds
// [0, 300): the retired command's, re-pinned when the engine's
// generator moved to PCG.
func TestSweepMatchesLegacyScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("1 200 seeded runs")
	}
	for _, tc := range []struct {
		args   []string
		ref    harness.Scenario
		digest string
	}{
		{[]string{"-algo", "busy", "-fd", "perfect", "-n", "8"},
			legacySweepScenario("busy", "perfect", 8, 2000, nil, 0, 0), "8a2d5cc5997e2406"},
		{[]string{"-algo", "rotating", "-fd", "eventually-strong", "-n", "8", "-crash", "p2@40", "-faults", "drop=15"},
			legacySweepScenario("rotating", "diamond-s", 8, 2000, [][2]int{{2, 40}}, 15, 0), "64f3d263af3bed06"},
		{[]string{"-algo", "busy", "-fd", "perfect", "-n", "64", "-crash", "p7@300,p21@900"},
			legacySweepScenario("busy", "perfect", 64, 2000, [][2]int{{7, 300}, {21, 900}}, 0, 0), "a2d334aa1d68a96e"},
		{[]string{"-algo", "sflooding", "-fd", "perfect", "-n", "16", "-crash", "p3@60", "-faults", "delay=5"},
			legacySweepScenario("sflooding", "perfect", 16, 2000, [][2]int{{3, 60}}, 0, 5), "4d81517ded77d18d"},
	} {
		_, _, srcs, err := prepare(append([]string{"sweep", "-horizon", "2000", "-seed", "0", "-seeds", "300"}, tc.args...))
		if err != nil {
			t.Fatal(err)
		}
		seeds := harness.SeedRange{From: 0, To: 300}
		got := harness.Reduce(srcs[0].sc, seeds, 0, harness.SweepReducer())
		want := harness.Reduce(tc.ref, seeds, 0, harness.SweepReducer())
		if got.Digest != want.Digest {
			t.Errorf("%q: digest %s, reference %s", tc.args, short(got.Digest), short(want.Digest))
		}
		if short(got.Digest) != tc.digest {
			t.Errorf("%q: digest %s, pinned %s", tc.args, short(got.Digest), tc.digest)
		}
	}
}

// TestSweepExampleScenarios pins the digests of the example specs over
// 128 seeds each, as the directory sweep runs them.
func TestSweepExampleScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("512 seeded runs")
	}
	_, _, srcs, err := prepare([]string{"sweep", "../../examples/scenarios", "-seeds", "128"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"churn16":         "faf3f12f773df54c",
		"lossy-consensus": "4a70993c4d70030c",
		"ring-partition":  "1dcdab137c40ce86",
		"smoke16":         "5f91ba7d7f96878a",
	}
	if len(srcs) != len(want) {
		t.Fatalf("%d example specs, want %d", len(srcs), len(want))
	}
	for _, src := range srcs {
		seeds := harness.SeedRange{From: src.spec.Seeds.From, To: src.spec.Seeds.To}
		st := harness.Reduce(src.sc, seeds, 0, harness.AuditReducer(audit(src.spec)))
		if got := short(st.Digest); got != want[src.spec.Name] {
			t.Errorf("%s: digest %s, pinned %s", src.spec.Name, got, want[src.spec.Name])
		}
		if st.AuditFailures != 0 {
			t.Errorf("%s: %d audit failures, first %+v", src.spec.Name, st.AuditFailures, st.FirstFailure)
		}
	}
}

// TestEveryProtocolRuns drives each protocol kind through the run
// report at its default oracle, and its sweep audit over a few seeds.
func TestEveryProtocolRuns(t *testing.T) {
	for _, algo := range []string{"sflooding", "rotating", "marabout", "partial-order", "trb", "abcast", "reduction", "busy"} {
		_, _, srcs, err := prepare([]string{"run", "-algo", algo, "-fd", "eventually-perfect", "-horizon", "3000", "-crash", "p4@50"})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		src := srcs[0]
		r := src.sc.Run(src.spec.Seeds.From)
		if r.Err != nil {
			t.Fatalf("%s: %v", algo, r.Err)
		}
		if err := reportRun(src.spec, r.Trace, false); err != nil {
			t.Fatalf("%s: report: %v", algo, err)
		}
		st := harness.Reduce(src.sc, harness.SeedRange{From: 0, To: 4}, 0, harness.AuditReducer(audit(src.spec)))
		if st.Runs != 4 || st.Errors != 0 {
			t.Fatalf("%s: sweep %+v", algo, st)
		}
	}
}

const goodSpec = `{
  "name": "smoke",
  "n": 4,
  "horizon": 300,
  "seeds": {"from": 0, "to": 4},
  "protocol": {"kind": "busy"},
  "oracle": {"kind": "perfect", "delay": 2}
}
`

func TestListScenarioFilesSortedAndFiltered(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.json", "a.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(goodSpec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := listScenarioFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	if fmt.Sprint(files) != fmt.Sprint(want) {
		t.Fatalf("files = %v, want %v", files, want)
	}
	if _, _, _, err := prepare([]string{"sweep", t.TempDir()}); err == nil || !strings.Contains(err.Error(), "no scenario files") {
		t.Errorf("empty directory: err = %v", err)
	}
}

func TestRunValidate(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(goodSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := fdsim([]string{"validate", good}); code != 0 {
		t.Errorf("valid file: exit code %d, want 0", code)
	}
	if code := fdsim([]string{"validate", "-algo", "trb", "-waves", "3"}); code != 0 {
		t.Errorf("valid flags: exit code %d, want 0", code)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x", "n": 4, "horizon": 10, "protocol": {"kind": "paxos"}, "oracle": {"kind": "perfect"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := fdsim([]string{"validate", good, bad}); code != 1 {
		t.Errorf("invalid file present: exit code %d, want 1", code)
	}
	// A directory holding both is checked file by file too.
	if code := fdsim([]string{"validate", dir}); code != 1 {
		t.Errorf("invalid file in directory: exit code %d, want 1", code)
	}
}
