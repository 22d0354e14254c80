package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestEveryExperimentConfirms is the repository's top-level regression
// gate: each E-table must reach a confirming (✓) verdict at one seed
// per scenario. A regression anywhere in the stack — model, oracle,
// simulator, algorithm, checker — surfaces here as a ✗ verdict.
func TestEveryExperimentConfirms(t *testing.T) {
	t.Parallel()
	for _, g := range Generators {
		t.Run(g.ID, func(t *testing.T) {
			t.Parallel()
			tbl := g.Gen(1)
			if tbl.ID != g.ID {
				t.Errorf("table ID = %q, want %q", tbl.ID, g.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			if !strings.Contains(tbl.Verdict, "✓") || strings.Contains(tbl.Verdict, "✗") {
				t.Fatalf("verdict not confirming: %q", tbl.Verdict)
			}
		})
	}
}

// TestTablesByteIdenticalAcrossWorkers is the harness acceptance
// gate: every E-table produced with parallelism > 1 must be
// byte-identical to the sequential run. Results are slotted by seed
// inside the sweeps, so worker count must be unobservable.
func TestTablesByteIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	// SetWorkers is atomic and the tables are worker-count-invariant
	// (that is exactly what this test proves), so flipping it while
	// sibling tests run is safe.
	defer SetWorkers(0)
	const seeds = 2
	var seq, par bytes.Buffer
	SetWorkers(1)
	RunAll(&seq, seeds)
	SetWorkers(6)
	RunAll(&par, seeds)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel tables differ from sequential:\n--- workers=1 ---\n%s\n--- workers=6 ---\n%s",
			seq.String(), par.String())
	}
}

// TestFaultColumnsPresent pins the lossy-network scenarios into the
// tables: E1 carries the delay+partition network rows, E8 the lossy
// rotating-safety column, E9 the healed-outage columns.
func TestFaultColumnsPresent(t *testing.T) {
	t.Parallel()
	e1 := E1Totality(1)
	lossyRows := 0
	for _, row := range e1.Rows {
		if len(row) > 1 && row[1] == "delay+partition" {
			lossyRows++
		}
	}
	if lossyRows == 0 {
		t.Error("E1 has no delay+partition rows")
	}
	e8 := E8MajorityCrossover(1)
	if got := e8.Columns[len(e8.Columns)-1]; got != "lossy rot. safety" {
		t.Errorf("E8 last column = %q, want lossy rot. safety", got)
	}
	e9 := E9QoS()
	found := false
	for _, c := range e9.Columns {
		if strings.Contains(c, "outage") {
			found = true
		}
	}
	if !found {
		t.Errorf("E9 columns %v lack an outage column", e9.Columns)
	}
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tbl := &Table{
		ID:      "EX",
		Title:   "demo",
		Claim:   "renders",
		Columns: []string{"a", "long-column"},
		Verdict: "fine ✓",
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"EX — demo", "claim: renders", "long-column", "verdict: fine ✓"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns are aligned: the separator row matches header width.
	if !strings.Contains(out, "---") {
		t.Error("missing separator")
	}
}

func TestRunAllWritesEveryTable(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	RunAll(&buf, 1)
	out := buf.String()
	for _, id := range []string{"E1 —", "E2 —", "E3 —", "E4 —", "E5 —", "E6 —", "E7 —", "E8 —", "E9 —"} {
		if !strings.Contains(out, id) {
			t.Errorf("RunAll output missing %q", id)
		}
	}
}
