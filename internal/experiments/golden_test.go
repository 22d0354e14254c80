package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden_tables.txt")

const goldenTableSeeds = 2

// goldenTables renders every E-table at a fixed seed count and hashes
// the rendering. The hashes were generated at the commit before the
// engine hot-path rewrite, so they hold the rewrite to byte-identical
// experiment output.
func goldenTables() map[string]string {
	out := make(map[string]string, len(Generators))
	for _, g := range Generators {
		var buf bytes.Buffer
		g.Gen(goldenTableSeeds).Fprint(&buf)
		sum := sha256.Sum256(buf.Bytes())
		out[g.ID] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestGoldenTables pins the rendered experiment tables: any engine or
// query-API change that shifts a schedule, a decision time, or a table
// cell shows up as a hash mismatch. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenTables -update
//
// only when output is *supposed* to change, and say why in the PR.
func TestGoldenTables(t *testing.T) {
	got := goldenTables()
	path := filepath.Join("testdata", "golden_tables.txt")

	if *updateGolden {
		saveGolden(t, path, "# SHA-256 of each rendered E-table at 2 seeds; regenerate with: go test ./internal/experiments -run TestGoldenTables -update\n", got)
		return
	}
	want := loadGolden(t, path)

	for id, h := range got {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: no pinned hash (regenerate with -update)", id)
			continue
		}
		if h != w {
			t.Errorf("%s: table hash %s… != pinned %s… — experiment output changed", id, h[:16], w[:16])
		}
	}
}

// saveGolden writes a "<name> <hex>" table, sorted by name, under the
// given header comment line.
func saveGolden(t *testing.T, path, header string, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(header)
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, got[name])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d golden entries to %s", len(got), path)
}

// loadGolden reads a table written by saveGolden.
func loadGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
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
	return want
}
