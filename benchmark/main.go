// Command benchmark is the repository's benchmark: five workloads over
// both halves — the simulator campaign and the live gossip detector —
// nine end-to-end metrics with regression bounds, and a per-layer
// ledger taken in a separate traced run. README.md in this directory
// has the metric table and the rules; BENCHMARK.json at the repository
// root declares the same names to the driver.
//
// Run from the repository root:
//
//	go run ./benchmark                       every workload, untraced
//	go run ./benchmark -workload sim-tables  one workload
//	go run ./benchmark -trace spans.json     traced: adds the ledger
//	go run ./benchmark -aa                   twice, and compare
//
// With one workload selected the last line of standard output is the
// JSON object the driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// runEnv is what every workload is given.
type runEnv struct {
	seed    int64
	seconds int
	procs   int     // GOMAXPROCS in force
	tr      *tracer // nil in an untraced run
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(*runEnv) (*result, error)
}

// workloads in the order they run and print. Why each exists is in
// README.md and BENCHMARK.json.
var workloads = []workload{
	{sweepName, runSimSweep},
	{tablesName, runSimTables},
	{liveKill.name, liveKill.run},
	{liveLossy.name, liveLossy.run},
	{meshName, runMesh},
}

// defaultSeconds matches run_seconds in BENCHMARK.json. The checked-in
// live scripts last exactly this long.
const defaultSeconds = 15

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "run only this workload (default: all five)")
	seed := flag.Int64("seed", 1, "offsets the simulator seed ranges; seeds the cluster, the gossipers and the choice of victims")
	seconds := flag.Int("seconds", defaultSeconds, "length of each timed section; sizes the fixed work")
	trace := flag.String("trace", "0", "0: untraced; 1: traced, spans to .bench_build/; any other value: traced, spans to that file")
	aa := flag.Bool("aa", false, "run everything twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *seed < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments, or -seconds < 1, or -seed < 0")
		return 2
	}

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}

	// At most four cores: the reference box has two, and numbers taken
	// on a wide machine would not compare with it.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	env := &runEnv{seed: *seed, seconds: *seconds, procs: procs}
	tracePath := ""
	if *trace != "0" {
		env.tr = newTracer()
		tracePath = *trace
		if tracePath == "1" {
			tracePath = ".bench_build/benchmark-spans.json"
		}
	}
	fmt.Printf("# realisticfd benchmark: GOMAXPROCS=%d (min(NumCPU=%d, 4)) seed=%d seconds=%d traced=%v\n",
		procs, runtime.NumCPU(), *seed, *seconds, env.tr != nil)
	fmt.Println("# all traffic is host loopback TCP or in-memory channels; nothing leaves this process")

	passes := 1
	if *aa {
		passes = 2
	}
	results := make([][]*result, passes)
	failed := false
	for pass := range results {
		for _, w := range selected {
			res, err := w.run(env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			report(res, env.tr != nil)
			failed = failed || res.failed > 0
			results[pass] = append(results[pass], res)
		}
	}
	if env.tr != nil {
		if err := env.tr.write(tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("# %d spans written to %s\n", len(env.tr.spans), tracePath)
	}
	if *aa && !compare(results[0], results[1], env.tr != nil) {
		failed = true
	}
	if len(selected) == 1 && !*aa {
		if err := driverLine(results[0][0], env.tr != nil); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// report prints one workload's metrics by name with their units, then
// its notes and failed operations.
func report(res *result, traced bool) {
	fmt.Printf("\n== %s: %d operations attempted, %d failed\n", res.workload, res.attempted, res.failed)
	for _, d := range endToEnd {
		if v, ok := res.e2e[d.name]; ok {
			fmt.Printf("%-18s %-34s %18.8f %s\n", res.workload, d.name, v, d.unit)
		}
	}
	if traced {
		for _, d := range perLayer {
			if v, ok := res.layer[d.name]; ok {
				fmt.Printf("%-18s %-34s %18.8f %s\n", res.workload, d.name, v, d.unit)
			}
		}
	}
	for _, n := range res.notes {
		fmt.Printf("  # %s\n", n)
	}
	for _, f := range res.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// compare prints each end-to-end metric of two passes side by side with
// its relative difference and bound, and reports whether every one
// stayed within it. In a traced run the exact counts must also agree.
func compare(a, b []*result, traced bool) bool {
	ok := true
	fmt.Printf("\n== A/A: two passes of the same code\n")
	fmt.Printf("%-18s %-26s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a {
		for _, d := range endToEnd {
			x, has := a[i].e2e[d.name]
			if !has {
				continue
			}
			y := b[i].e2e[d.name]
			diff := math.Abs(y-x) / math.Abs(x)
			verdict := ""
			if !(diff <= d.bound) {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Printf("%-18s %-26s %14.6f %14.6f %7.2f%% %6.0f%%%s\n", a[i].workload, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
		if !traced {
			continue
		}
		for _, name := range exactCounts {
			x, has := a[i].layer[name]
			if !has {
				continue
			}
			if y := b[i].layer[name]; x != y {
				fmt.Printf("%-18s %-26s %14.6f %14.6f   exact count differs\n", a[i].workload, name, x, y)
				ok = false
			}
		}
	}
	return ok
}

// driverLine prints the one JSON object the driver reads: every
// end-to-end metric in an untraced run, every per-layer metric in a
// traced one. A ledger entry this workload does not measure reads 0.
func driverLine(res *result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.name] = value{res.layer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.name] = value{res.filled(d.name), d.unit}
		}
	}
	for n, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", res.workload, n, m.Value)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
