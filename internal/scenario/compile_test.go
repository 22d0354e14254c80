package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"realisticfd/internal/model"
)

// sideCoversAllJSON cuts along a side that names every node: its
// boundary severs no overlay edge, so the spec must fail to compile,
// and every entry point must say so.
const sideCoversAllJSON = `{
  "schema": "fdspec/v3",
  "name": "side-covers-all",
  "n": 4,
  "horizon": 100,
  "seeds": {"from": 0, "to": 1},
  "protocol": {"kind": "busy"},
  "oracle": {"kind": "perfect"},
  "plan": [{"at": 10, "action": "cut", "side": [1, 2, 3, 4]}]
}`

// FuzzSpecCompile holds the entry points to one compile: a document
// Parse accepts also compiles, builds when the simulator can hold it,
// severs the same edges at every tick under both lowerings, and keeps
// its ConfigDigest through its canonical encoding.
func FuzzSpecCompile(f *testing.F) {
	var files []string
	for _, dir := range []string{"../../examples/scenarios", "../experiments/testdata/scenarios", "../../benchmark/specs"} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		f.Fatal("no checked-in specs to seed the corpus")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range []string{sideCoversAllJSON, v3JSON, liveJSON} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The overlay grows with n², so skip large systems before Parse
		// generates one. The probe decodes as leniently as Parse does
		// strictly: a document it cannot read, Parse refuses.
		var probe struct {
			N int `json:"n"`
		}
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe); err == nil && probe.N > 256 {
			t.Skip("n > 256")
		}
		s, err := Parse(data)
		if err != nil {
			return
		}
		plan, err := s.CompilePlan()
		if err != nil {
			t.Fatalf("Parse accepted a spec CompilePlan refuses: %v", err)
		}
		if s.N <= model.MaxProcesses {
			sc, err := s.Build()
			if err != nil {
				t.Fatalf("Parse accepted a spec Build refuses: %v", err)
			}
			if s.Horizon <= 100_000 {
				checkLoweringsAgree(t, plan, sc.Faults)
			}
		}
		canon, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical encoding does not parse: %v\n%s", err, canon)
		}
		d1, err1 := s.ConfigDigest()
		d2, err2 := again.ConfigDigest()
		if err1 != nil || err2 != nil || d1 != d2 {
			t.Fatalf("ConfigDigest %s (%v) became %s (%v) through the canonical encoding", d1, err1, d2, err2)
		}
	})
}

// TestCompileAllocBudgets pins Build, one compile and one lowering, on
// an E8 row (the table builds one spec per row) and on the 32-node live
// spec, and the live workloads' setup path, where Parse, Validate and
// CompilePlan each compile the spec. It is not parallel: AllocsPerRun
// counts every allocation in the process, the other tests' included.
func TestCompileAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budget holds for the build the benchmark measures")
	}
	e8, err := Load("../experiments/testdata/scenarios/E8-rotating-lossy.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../../benchmark/specs/live-lossy-n32.json")
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label  string
		budget float64
		op     func()
	}{
		{"E8-rotating-lossy: Build", 26, func() { _, _ = e8.Build() }},
		{"live-lossy-n32: Build", 48, func() { _, _ = lossy.Build() }},
		// The live workloads' setup_s path: a decode and three compiles.
		{"live-lossy-n32: Parse, Validate, CompilePlan", 108, func() {
			s, _ := Parse(data)
			_ = s.Validate()
			_, _ = s.CompilePlan()
		}},
	} {
		allocs := testing.AllocsPerRun(20, c.op)
		t.Logf("%s: %.0f allocations", c.label, allocs)
		if allocs > c.budget {
			t.Errorf("%s allocates %.0f times, budget %.0f", c.label, allocs, c.budget)
		}
	}
}

// BenchmarkSpecPipelineN64 times the live workloads' set-up path on the
// checked-in n = 64 chord spec: Parse, Validate and CompilePlan, each of
// which compiles the spec and so generates its overlay.
func BenchmarkSpecPipelineN64(b *testing.B) {
	data, err := os.ReadFile("../../benchmark/specs/live-kill-n64.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		s, err := Parse(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
		plan, err := s.CompilePlan()
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Kills) != 6 {
			b.Fatalf("plan kills %d nodes, want 6", len(plan.Kills))
		}
	}
}
