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
// scaled to -n. With -bound (or a plan's bound_ms) the run becomes an
// assertion and the exit status a verdict: every survivor must suspect
// every killed node within the bound, no resumed node may stay
// suspected at collection, and every mid-run joiner must be adopted
// cluster-wide.
//
// The result JSON carries the spec's sha256 config digest
// (plan_digest), which is the run's identity: -validate parses and
// semantically checks the plan (printing the digest) without spawning
// anything, and -if-changed skips the run when the -out file already
// holds a result with the same digest — a renamed-but-changed plan is
// never mistaken for a rerun.
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
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"realisticfd/internal/cluster"
	"realisticfd/internal/scenario"
)

func main() {
	var (
		plan      = flag.String("plan", "", "fdspec/v3 scenario file (default: built-in schedule)")
		n         = flag.Int("n", 16, "cluster size for the built-in schedule (≥ 6)")
		est       = flag.String("est", "phi", "estimator: fixed|chen|phi")
		timeout   = flag.Duration("timeout", 0, "fixed estimator timeout (default 12×interval)")
		interval  = flag.Duration("interval", 50*time.Millisecond, "gossip round period")
		fanout    = flag.Int("fanout", 0, "gossip destinations per round (0 = all overlay neighbors)")
		warmup    = flag.Duration("warmup", time.Second, "dissemination warmup before the schedule")
		settle    = flag.Duration("settle", 2*time.Second, "observation tail after the last event")
		bound     = flag.Duration("bound", 0, "detection bound to assert (0 = report only)")
		nodeBin   = flag.String("node-bin", "", "fdnode binary (default: next to fdorch, then $PATH)")
		inproc    = flag.Bool("inproc", false, "run nodes as goroutines instead of processes")
		pairs     = flag.Bool("pairs", false, "include the full observer×target metric matrix")
		out       = flag.String("out", "", "write the JSON result here instead of stdout")
		seed      = flag.Int64("seed", 1, "fanout sampling and fault-lottery seed")
		runFor    = flag.Duration("max-run", 10*time.Minute, "hard deadline for the whole run")
		quiet     = flag.Bool("q", false, "suppress progress logging")
		validate  = flag.Bool("validate", false, "parse and semantically check the plan, print its digest, spawn nothing")
		ifChanged = flag.Bool("if-changed", false, "with -out: skip the run when the existing result carries the same plan_digest")
	)
	flag.Parse()

	spec, err := buildSpec(*plan, *n, *est, *timeout, *interval, *fanout, *warmup, *settle, *bound)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdorch:", err)
		os.Exit(2)
	}
	digest, err := spec.ConfigDigest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdorch:", err)
		os.Exit(2)
	}
	if *validate {
		// Compiling the plan checks it against the generated overlay.
		if _, err := spec.CompilePlan(); err != nil {
			fmt.Fprintln(os.Stderr, "fdorch:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok %s\n", spec.Name, digest)
		return
	}
	if *ifChanged && *out != "" {
		if prior, err := priorDigest(*out); err == nil && prior == digest {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "fdorch: %s unchanged (%s), skipping rerun\n", *out, digest)
			}
			return
		}
	}

	cfg := cluster.Config{
		Scenario:     spec,
		Seed:         *seed,
		IncludePairs: *pairs,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	if *inproc {
		cfg.Spawner = cluster.InProcSpawner{}
	} else {
		bin, err := resolveNodeBin(*nodeBin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdorch:", err)
			os.Exit(2)
		}
		cfg.Spawner = &cluster.ProcSpawner{Command: []string{bin}, Stderr: os.Stderr}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *runFor)
	defer cancel()
	res, err := cluster.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdorch:", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdorch:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fdorch:", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(enc)
	}

	if len(res.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "fdorch: %d assertion failure(s):\n", len(res.Failures))
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "fdorch: %s ok — %d/%d reports, %d kill(s) detected, %d join(s), fan-out ≤ %d\n",
			res.Name, res.Reports, res.Expected, len(res.Kills), len(res.Joins), res.MaxDistinctDestinations)
	}
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

// buildSpec loads the plan file or synthesizes the built-in schedule:
// kill two nodes at t0, pause one across a partition window, cut one
// node's entire boundary, heal and resume, observe.
func buildSpec(plan string, n int, est string, timeout, interval time.Duration, fanout int, warmup, settle, bound time.Duration) (*scenario.Spec, error) {
	if plan != "" {
		spec, err := scenario.Load(plan)
		return &spec, err
	}
	if n < 6 {
		return nil, fmt.Errorf("built-in schedule needs n ≥ 6 (got %d); use -plan for smaller clusters", n)
	}
	estSpec := scenario.LiveEstimatorSpec{}
	switch est {
	case "fixed":
		if timeout <= 0 {
			timeout = 12 * interval
		}
		estSpec = scenario.LiveEstimatorSpec{Kind: scenario.LiveEstFixed, TimeoutMs: int(timeout.Milliseconds())}
	case "chen":
		estSpec.Kind = scenario.LiveEstChen
	case "phi":
		estSpec.Kind = scenario.LiveEstPhi
	default:
		return nil, fmt.Errorf("unknown estimator %q", est)
	}
	spec := &scenario.Spec{
		Schema:   scenario.SchemaV3,
		Name:     fmt.Sprintf("builtin-%d", n),
		N:        n,
		Horizon:  1100, // the last action
		Protocol: scenario.ProtocolSpec{Kind: scenario.ProtocolBusy},
		Oracle:   scenario.OracleSpec{Kind: scenario.OraclePerfect},
		Topology: scenario.TopologySpec{Kind: scenario.TopologyChord},
		Plan: []scenario.ActionSpec{
			{At: 0, Action: "kill", Nodes: []int{2, n/2 + 1}},
			{At: 200, Action: "pause", Nodes: []int{n}},
			{At: 400, Action: "cut", Side: []int{1}},
			{At: 1100, Action: "heal"},
			{At: 1100, Action: "resume", Nodes: []int{n}},
		},
		Live: &scenario.LiveParams{
			IntervalMs: int(interval.Milliseconds()),
			Fanout:     fanout,
			Estimator:  estSpec,
			WarmupMs:   int(warmup.Milliseconds()),
			SettleMs:   int(settle.Milliseconds()),
			BoundMs:    int(bound.Milliseconds()),
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
