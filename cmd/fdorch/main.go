// Command fdorch orchestrates a live failure-detector cluster: it
// spawns N fdnode processes on localhost (or goroutines with
// -inproc), wires them into a gossip overlay, executes a scripted
// fault schedule — kill (SIGKILL), pause/resume (SIGSTOP/SIGCONT),
// socket-level partition and heal — then collects each survivor's
// suspicion timeline and folds it into the same QoS vocabulary as the
// simulator (T_D, λ_M, T_M, P_A), emitted as JSON.
//
// The faults come from a -plan file — a /v3 scenario whose fault plan
// also runs under fdsim's sim lowering (examples/scenarios/) —
// or, without one, a built-in kill+pause+partition+heal sequence
// scaled to -n. The live cluster runs the busy protocol only: a plan
// naming another protocol is refused with exit 2, -validate included,
// and its oracle and stop fields are simulator-only. The flags that
// shape the built-in schedule (-n -est -timeout -interval -fanout
// -warmup -settle -bound) are refused beside -plan, whose file carries
// them. With -bound (or a plan's bound_ms) the run becomes an
// assertion and the exit status a verdict: every survivor must suspect
// every killed node within the bound, no resumed node may stay
// suspected at collection, and every mid-run joiner must be adopted
// cluster-wide.
//
// The result JSON carries the spec's sha256 config digest
// (plan_digest), which is the run's identity: -validate parses and
// semantically checks the plan, the protocol check included (printing
// the digest), without spawning anything, and -if-changed skips the
// run when the -out file already holds a result with the same digest —
// a renamed-but-changed plan is never mistaken for a rerun.
//
// Examples:
//
//	fdorch -n 16 -bound 3s                 # assert a 16-process run
//	fdorch -n 200 -interval 250ms          # the scale the simulator's exemplar timed out at
//	fdorch -inproc -n 8 -interval 25ms     # a quick demo: nodes are goroutines
//	fdorch -plan examples/scenarios/smoke16.json -inproc
//	fdorch -plan examples/scenarios/churn16.json -validate
//	fdorch -plan examples/scenarios/churn16.json -inproc -out churn16.live.json -if-changed
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"realisticfd/internal/cluster"
	"realisticfd/internal/scenario"
)

// options holds fdorch's parsed command line.
type options struct {
	plan, est, nodeBin, out                          string
	n, fanout                                        int
	seed                                             int64
	timeout, interval, warmup, settle, bound, runFor time.Duration
	inproc, pairs, quiet, validate, ifChanged        bool
}

// builtinFlags shape the built-in schedule; a -plan file carries its
// own values for all of them.
var builtinFlags = []string{"n", "est", "timeout", "interval", "fanout", "warmup", "settle", "bound"}

func main() {
	os.Exit(fdorch(os.Args[1:]))
}

// fdorch runs one invocation and returns its exit code: 2 for a bad
// command line or plan, 1 for a failed run or assertion.
func fdorch(args []string) int {
	o, spec, err := prepare(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return fail(2, err)
	}
	digest, err := spec.ConfigDigest()
	if err != nil {
		return fail(2, err)
	}
	if o.validate {
		// prepare has compiled the plan: Load and Validate both do.
		fmt.Printf("%s: ok %s\n", spec.Name, digest)
		return 0
	}
	if o.ifChanged && o.out != "" {
		if prior, err := priorDigest(o.out); err == nil && prior == digest {
			if !o.quiet {
				fmt.Fprintf(os.Stderr, "fdorch: %s unchanged (%s), skipping rerun\n", o.out, digest)
			}
			return 0
		}
	}

	cfg := cluster.Config{
		Scenario:     spec,
		Seed:         o.seed,
		IncludePairs: o.pairs,
	}
	if !o.quiet {
		cfg.Log = os.Stderr
	}
	if o.inproc {
		cfg.Spawner = cluster.InProcSpawner{}
	} else {
		bin, err := resolveNodeBin(o.nodeBin)
		if err != nil {
			return fail(2, err)
		}
		cfg.Spawner = &cluster.ProcSpawner{Command: []string{bin}, Stderr: os.Stderr}
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.runFor)
	defer cancel()
	res, err := cluster.Run(ctx, cfg)
	if err != nil {
		return fail(1, err)
	}

	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fail(1, err)
	}
	enc = append(enc, '\n')
	if o.out != "" {
		if err := os.WriteFile(o.out, enc, 0o644); err != nil {
			return fail(1, err)
		}
	} else {
		os.Stdout.Write(enc)
	}

	if len(res.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "fdorch: %d assertion failure(s):\n", len(res.Failures))
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		return 1
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "fdorch: %s ok — %d/%d reports, %d kill(s) detected, %d join(s), fan-out ≤ %d\n",
			res.Name, res.Reports, res.Expected, len(res.Kills), len(res.Joins), res.MaxDistinctDestinations)
	}
	return 0
}

// fail reports err and returns code.
func fail(code int, err error) int {
	fmt.Fprintln(os.Stderr, "fdorch:", err)
	return code
}

// prepare parses the command line and builds the spec it names. It
// refuses a stray argument, which would end flag parsing and drop the
// flags after it, and a built-in-schedule flag given with -plan, which
// the plan would silently override.
func prepare(args []string) (options, *scenario.Spec, error) {
	var o options
	fs := flag.NewFlagSet("fdorch", flag.ContinueOnError)
	fs.StringVar(&o.plan, "plan", "", "fdspec/v3 scenario file (default: built-in schedule)")
	fs.IntVar(&o.n, "n", 16, "cluster size for the built-in schedule (≥ 6)")
	fs.StringVar(&o.est, "est", "phi", "estimator: fixed|chen|phi")
	fs.DurationVar(&o.timeout, "timeout", 0, "fixed estimator timeout (default 12×interval)")
	fs.DurationVar(&o.interval, "interval", 50*time.Millisecond, "gossip round period")
	fs.IntVar(&o.fanout, "fanout", 0, "gossip destinations per round (0 = all overlay neighbors)")
	fs.DurationVar(&o.warmup, "warmup", time.Second, "dissemination warmup before the schedule")
	fs.DurationVar(&o.settle, "settle", 2*time.Second, "observation tail after the last event")
	fs.DurationVar(&o.bound, "bound", 0, "detection bound to assert (0 = report only)")
	fs.StringVar(&o.nodeBin, "node-bin", "", "fdnode binary (default: next to fdorch, then $PATH)")
	fs.BoolVar(&o.inproc, "inproc", false, "run nodes as goroutines instead of processes")
	fs.BoolVar(&o.pairs, "pairs", false, "include the full observer×target metric matrix")
	fs.StringVar(&o.out, "out", "", "write the JSON result here instead of stdout")
	fs.Int64Var(&o.seed, "seed", 1, "fanout sampling and fault-lottery seed")
	fs.DurationVar(&o.runFor, "max-run", 10*time.Minute, "hard deadline for the whole run")
	fs.BoolVar(&o.quiet, "q", false, "suppress progress logging")
	fs.BoolVar(&o.validate, "validate", false, "parse and semantically check the plan, print its digest, spawn nothing")
	fs.BoolVar(&o.ifChanged, "if-changed", false, "with -out: skip the run when the existing result carries the same plan_digest")
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if fs.NArg() > 0 {
		return o, nil, fmt.Errorf("unexpected argument %q: fdorch takes flags only", fs.Arg(0))
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if o.plan != "" && slices.Contains(builtinFlags, f.Name) {
			err = fmt.Errorf("-%s shapes the built-in schedule, and -plan was given too; set it in the plan file", f.Name)
		}
	})
	if err != nil {
		return o, nil, err
	}
	spec, err := o.spec()
	if err == nil {
		err = cluster.CheckProtocol(spec)
	}
	return o, spec, err
}

// priorDigest reads the plan_digest of an existing result file.
func priorDigest(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var res struct {
		PlanDigest string `json:"plan_digest"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return "", err
	}
	if res.PlanDigest == "" {
		return "", fmt.Errorf("no plan_digest in %s", path)
	}
	return res.PlanDigest, nil
}

// spec loads the plan file or synthesizes the built-in schedule:
// kill two nodes at t0, pause one across a partition window, cut one
// node's entire boundary, heal and resume, observe.
func (o options) spec() (*scenario.Spec, error) {
	if o.plan != "" {
		spec, err := scenario.Load(o.plan)
		return &spec, err
	}
	if o.n < 6 {
		return nil, fmt.Errorf("built-in schedule needs n ≥ 6 (got %d); use -plan for smaller clusters", o.n)
	}
	if o.timeout != 0 && o.est != "fixed" {
		return nil, fmt.Errorf("-timeout applies to -est fixed only (got -est %s)", o.est)
	}
	estSpec := scenario.LiveEstimatorSpec{}
	switch o.est {
	case "fixed":
		if o.timeout <= 0 {
			o.timeout = 12 * o.interval
		}
		estSpec = scenario.LiveEstimatorSpec{Kind: scenario.LiveEstFixed, TimeoutMs: int(o.timeout.Milliseconds())}
	case "chen":
		estSpec.Kind = scenario.LiveEstChen
	case "phi":
		estSpec.Kind = scenario.LiveEstPhi
	default:
		return nil, fmt.Errorf("unknown estimator %q", o.est)
	}
	spec := &scenario.Spec{
		Schema:   scenario.SchemaV3,
		Name:     fmt.Sprintf("builtin-%d", o.n),
		N:        o.n,
		Horizon:  1100, // the last action
		Protocol: scenario.ProtocolSpec{Kind: scenario.ProtocolBusy},
		Oracle:   scenario.OracleSpec{Kind: scenario.OraclePerfect},
		Topology: scenario.TopologySpec{Kind: scenario.TopologyChord},
		Plan: []scenario.ActionSpec{
			{At: 0, Action: "kill", Nodes: []int{2, o.n/2 + 1}},
			{At: 200, Action: "pause", Nodes: []int{o.n}},
			{At: 400, Action: "cut", Side: []int{1}},
			{At: 1100, Action: "heal"},
			{At: 1100, Action: "resume", Nodes: []int{o.n}},
		},
		Live: &scenario.LiveParams{
			IntervalMs: int(o.interval.Milliseconds()),
			Fanout:     o.fanout,
			Estimator:  estSpec,
			WarmupMs:   int(o.warmup.Milliseconds()),
			SettleMs:   int(o.settle.Milliseconds()),
			BoundMs:    int(o.bound.Milliseconds()),
		},
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// resolveNodeBin finds the fdnode binary: the explicit flag, then the
// directory fdorch itself lives in, then $PATH.
func resolveNodeBin(flagVal string) (string, error) {
	if flagVal != "" {
		return flagVal, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "fdnode")
		if info, err := os.Stat(cand); err == nil && !info.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("fdnode"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("fdnode binary not found (go build ./cmd/fdnode, or pass -node-bin / -inproc)")
}
