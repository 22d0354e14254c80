// Package experiments regenerates the paper's results as tables
// (E1–E9, indexed in DESIGN.md §4). The paper is a theory paper with
// no numeric tables of its own; each experiment is the executable
// form of one lemma/proposition/remark, evaluated over seeded
// adversarial runs. cmd/experiments prints the tables; EXPERIMENTS.md
// records expected-vs-measured; the sim-tables workload of the
// repository benchmark (go run ./benchmark) times each generator.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
)

// workerCount holds the sweep parallelism override (0 = GOMAXPROCS).
// It is atomic so tests can flip it while other tests read it; the
// tables are byte-identical at any worker count, so the exact moment a
// change lands never matters.
var workerCount atomic.Int32

// SetWorkers sets the worker-pool size used by every experiment sweep;
// n ≤ 0 restores the default (GOMAXPROCS). cmd/experiments wires its
// -parallel flag here.
func SetWorkers(n int) { workerCount.Store(int32(n)) }

// Workers returns the sweep worker-pool size currently in effect.
func Workers() int {
	if n := int(workerCount.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper statement under test
	Columns []string
	Rows    [][]string
	Verdict string // one-line outcome
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)

	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len([]rune(c))
			}
			parts[i] = c + strings.Repeat(" ", pad)
		}
		return "  " + strings.Join(parts, "  ")
	}
	fmt.Fprintln(w, line(t.Columns))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, line(sep))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
	fmt.Fprintf(w, "verdict: %s\n\n", t.Verdict)
}

// Generators lists every table's generator in table order. Each takes
// the seeds per scenario; E9's frontier is seedless.
var Generators = []struct {
	ID  string
	Gen func(seeds int) *Table
}{
	{"E1", E1Totality}, {"E2", E2Adversary}, {"E3", E3Reduction},
	{"E4", E4TRB}, {"E5", E5Marabout}, {"E6", E6PartialPerfect},
	{"E7", E7Collapse}, {"E8", E8MajorityCrossover},
	{"E9", func(int) *Table { return E9QoS() }},
}

// RunAll executes every experiment and prints its table.
func RunAll(w io.Writer, seeds int) {
	for _, g := range Generators {
		g.Gen(seeds).Fprint(w)
	}
}

// mark renders booleans as table-friendly glyphs.
func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}
