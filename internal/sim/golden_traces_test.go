package sim_test

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"realisticfd/internal/sim"
	"realisticfd/internal/sim/tracetest"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden_traces.txt")

const (
	goldenSeeds = 3
	goldenPath  = "testdata/golden_traces.txt"
)

// TestGoldenTraces is the behavior-preservation gate for engine and
// trace-index rewrites. What the file pins for every run of the grid is
// tracetest.TextHash — the SHA-256 of Trace.WriteText, which is what
// Trace.Digest() returned when the table was generated — and it must
// match byte for byte. Trace.Digest() is a different, versioned value
// (sim.DigestVersion) and is deliberately not pinned here, so that a
// change of digest format cannot be mistaken for, or hide, a change of
// behaviour. It is held to the pinned rendering instead: every run must
// survive the encode → decode → WriteText round trip, and over the whole
// grid digests and text hashes must separate exactly the same runs.
func TestGoldenTraces(t *testing.T) {
	got := make(map[string]string)
	digests := make(map[string]string)
	for _, gc := range sim.GoldenGrid() {
		for seed := int64(0); seed < goldenSeeds; seed++ {
			name := fmt.Sprintf("%s/seed%d", gc.Name, seed)
			tr, err := sim.Execute(gc.Cfg(seed))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name], digests[name] = tracetest.TextHash(tr), tr.Digest()
			if err := tracetest.RoundTrip(tr); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	if err := tracetest.SamePartition(got, digests); err != nil {
		t.Error(err)
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# Pinned sha256(Trace.WriteText) per run (not Trace.Digest(), which is versioned); regenerate with: go test ./internal/sim -run TestGoldenTraces -update\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(got), goldenPath)
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden table missing (generate with -update): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Errorf("grid has %d runs, golden table has %d (regenerate with -update after reviewing)", len(got), len(want))
	}
	for name, h := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned hash (new case? regenerate with -update)", name)
			continue
		}
		if h != w {
			t.Errorf("%s: text hash %s… != pinned %s… — the engine changed observable behavior", name, h[:16], w[:16])
		}
	}
}
