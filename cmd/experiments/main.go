// Command experiments regenerates every experiment table E1–E9 (the
// executable forms of the paper's lemmas, propositions and remarks;
// see DESIGN.md §4 for the index and EXPERIMENTS.md for the recorded
// expected-vs-measured outcomes).
//
// Usage:
//
//	go run ./cmd/experiments             # all experiments, 5 seeds each
//	go run ./cmd/experiments -seeds 20   # heavier sweep
//	go run ./cmd/experiments -only E3    # a single experiment
//	go run ./cmd/experiments -parallel 1 # sequential (output is identical)
//
// Sweeps fan out across a worker pool (default GOMAXPROCS); results
// are ordered by seed, so the tables are byte-identical at any
// parallelism.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"realisticfd/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run prints the tables args ask for to stdout and returns the exit
// code; a bad command line is one line on stderr and code 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 5, "seeds per experiment scenario (≥ 1)")
	only := fs.String("only", "", "run a single experiment (E1..E9)")
	parallel := fs.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var gens []func(int) *experiments.Table
	for _, g := range experiments.Generators {
		if *only == "" || strings.EqualFold(g.ID, *only) {
			gens = append(gens, g.Gen)
		}
	}
	var bad string
	switch {
	case fs.NArg() > 0:
		bad = fmt.Sprintf("unexpected argument %q: experiments takes flags only", fs.Arg(0))
	case *seeds < 1:
		bad = fmt.Sprintf("-seeds %d: want ≥ 1", *seeds)
	case *parallel < 0:
		bad = fmt.Sprintf("-parallel %d: want ≥ 0 (0 = GOMAXPROCS)", *parallel)
	case len(gens) == 0:
		bad = fmt.Sprintf("unknown experiment %q (want E1..E9)", *only)
	}
	if bad != "" {
		fmt.Fprintln(stderr, "experiments:", bad)
		return 2
	}
	experiments.SetWorkers(*parallel)
	for _, gen := range gens {
		gen(*seeds).Fprint(stdout)
	}
	return 0
}
