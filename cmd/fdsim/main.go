// Command fdsim is the simulator's one command line. It runs an
// agreement protocol under a failure-detector oracle and a failure
// pattern, configured as one scenario.Spec (DESIGN.md §8), in one of
// three modes:
//
//	fdsim [run]    one seeded run, audited against its specification
//	               and the paper's totality property
//	fdsim sweep    a seed campaign: SweepStats plus a per-run safety
//	               audit, printed as a JSON report on stdout
//	fdsim validate load, validate and compile specs; run nothing
//
// The config flags (-algo -fd -n -crash -faults -horizon -waves)
// assemble a spec with fdsim's default oracle parameters; spec files
// and directories of *.json files given as arguments load specs
// instead, and giving both is refused. -seed and -seeds pick the seed
// range of either. Every run is built by Spec.Build, so `fdsim run
// -seed s` replays exactly seed s of the matching sweep.
//
//	go run ./cmd/fdsim -algo partial-order -fd partially-perfect -crash p1@30,p2@80 -v
//	go run ./cmd/fdsim run -algo sflooding -faults drop=10,delay=6,part=1+2@40-400
//	go run ./cmd/fdsim sweep -algo rotating -fd eventually-strong -horizon 2000 -seeds 100000
//	go run ./cmd/fdsim sweep examples/scenarios -seeds 128 -checkpoints .ckpt > report.json
//	go run ./cmd/fdsim validate internal/experiments/testdata/scenarios
//
// part=1+2@40-400 severs every link between p1, p2 and the rest from
// t=40 until it heals at t=400. With -checkpoints DIR a sweep keeps a
// checkpoint per spec, named after its source and its config without
// the seed range: Ctrl-C exits with code 130, re-running the same
// command resumes, a finished checkpoint short-circuits, and a changed
// seed range or chunk size is refused rather than merged.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"realisticfd/internal/harness"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// options holds the parsed command line.
type options struct {
	algo, fd, crash, faults  string
	n, waves, chunk, workers int
	horizon, seed, seeds     int64
	checkpoints              string
	verbose                  bool
	set                      map[string]bool // flags given explicitly
	paths                    []string        // spec files and directories
}

// oracleDefaults is the one table of oracle parameters behind -fd;
// scribe and marabout take none.
var oracleDefaults = map[string]scenario.OracleSpec{
	scenario.OraclePerfect:           {Delay: 2},
	scenario.OraclePartiallyPerfect:  {Delay: 2},
	scenario.OracleRealisticStrong:   {BaseDelay: 1, Seed: 7, JitterMax: 4},
	scenario.OracleEventuallyStrong:  {GST: 100, Delay: 3, FalseRate: 10, PerSeed: true},
	scenario.OracleEventuallyPerfect: {GST: 100, Delay: 3, FalseRate: 10, PerSeed: true},
}

// source is one spec, assembled from the flags or loaded from a file,
// and its compiled scenario.
type source struct {
	label string // the file's base name, or "flags"
	spec  scenario.Spec
	sc    harness.Scenario
	err   error // load or build failure
}

func main() {
	os.Exit(fdsim(os.Args[1:]))
}

// fdsim runs one invocation and returns its exit code.
func fdsim(args []string) int {
	mode, o, srcs, err := prepare(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return fail(err)
	}
	switch mode {
	case "sweep":
		return runSweep(o, srcs)
	case "validate":
		return runValidate(srcs)
	}
	return runOne(srcs[0], o.verbose)
}

// fail reports err and returns the exit code of a failed invocation.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "fdsim:", err)
	return 1
}

// prepare parses the command line, then loads and builds every spec it
// names, so that each configuration error surfaces before the first
// seed runs. In validate mode per-spec failures stay on their sources
// for the report.
func prepare(args []string) (mode string, o options, srcs []source, err error) {
	mode = "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	if mode != "run" && mode != "sweep" && mode != "validate" {
		return mode, o, nil, fmt.Errorf("unknown mode %q (want run, sweep or validate)", mode)
	}
	if o, err = parseFlags(mode, args); err != nil {
		return mode, o, nil, err
	}
	if o.seeds < 1 {
		return mode, o, nil, fmt.Errorf("-seeds %d: want ≥ 1", o.seeds)
	}
	if o.chunk < 1 {
		return mode, o, nil, fmt.Errorf("-chunk %d: want ≥ 1", o.chunk)
	}
	if srcs, err = o.sources(); err != nil {
		return mode, o, nil, err
	}
	for i := range srcs {
		if srcs[i].err == nil {
			srcs[i].sc, srcs[i].err = srcs[i].spec.Build()
		}
		if srcs[i].err != nil && mode != "validate" {
			return mode, o, nil, srcs[i].err
		}
	}
	if mode == "run" && len(srcs) != 1 {
		return mode, o, nil, fmt.Errorf("run takes one spec, got %d", len(srcs))
	}
	return mode, o, srcs, nil
}

// parseFlags parses flags and positional arguments in any order.
func parseFlags(mode string, args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("fdsim "+mode, flag.ContinueOnError)
	fs.StringVar(&o.algo, "algo", scenario.ProtocolSFlooding, "protocol: sflooding|rotating|marabout|partial-order|trb|abcast|reduction|busy")
	fs.StringVar(&o.fd, "fd", scenario.OraclePerfect, "oracle: perfect|scribe|marabout|partially-perfect|realistic-strong|eventually-strong|eventually-perfect")
	fs.IntVar(&o.n, "n", 5, "system size (1..64)")
	fs.StringVar(&o.crash, "crash", "", "crash list, e.g. p2@40,p5@120")
	fs.StringVar(&o.faults, "faults", "", "link faults, e.g. drop=10,delay=5,part=1+2@40-400")
	fs.Int64Var(&o.horizon, "horizon", 60000, "max global-clock ticks per run")
	fs.IntVar(&o.waves, "waves", 2, "TRB waves (trb only)")
	fs.Int64Var(&o.seed, "seed", 1, "the run's seed, a sweep's first seed (spec files: default their own)")
	fs.Int64Var(&o.seeds, "seeds", 1000, "seeds a sweep runs (spec files: default their own range)")
	fs.IntVar(&o.chunk, "chunk", harness.DefaultChunkSize, "seeds per chunk (checkpoint granularity)")
	fs.IntVar(&o.workers, "parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	fs.StringVar(&o.checkpoints, "checkpoints", "", "sweep: directory of per-spec checkpoints (empty = none)")
	fs.BoolVar(&o.verbose, "v", false, "run: dump decisions/deliveries")
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			return o, err
		}
		if args = fs.Args(); len(args) > 0 {
			o.paths, args = append(o.paths, args[0]), args[1:]
		}
	}
	o.set = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, nil
}

// sources assembles the spec from the flags, or loads the spec files
// the arguments name and applies -seed and -seeds to each.
func (o options) sources() ([]source, error) {
	if len(o.paths) == 0 {
		spec, err := o.flagSpec()
		if err != nil {
			return nil, err
		}
		return []source{{label: "flags", spec: spec}}, nil
	}
	for _, name := range []string{"algo", "fd", "n", "crash", "faults", "horizon", "waves"} {
		if o.set[name] {
			return nil, fmt.Errorf("-%s configures a spec, and spec files were given too; use one or the other", name)
		}
	}
	var files []string
	for _, p := range o.paths {
		if info, err := os.Stat(p); err != nil || !info.IsDir() {
			files = append(files, p) // Load reports a missing file
			continue
		}
		in, err := listScenarioFiles(p)
		if err == nil && len(in) == 0 {
			err = fmt.Errorf("no scenario files (*.json) in %s", p)
		}
		if err != nil {
			return nil, err
		}
		files = append(files, in...)
	}
	srcs := make([]source, len(files))
	for i, f := range files {
		spec, err := scenario.Load(f)
		if o.set["seed"] {
			spec.Seeds = scenario.SeedSpec{From: o.seed, To: o.seed + spec.Seeds.To - spec.Seeds.From}
		}
		if o.set["seeds"] {
			spec.Seeds.To = spec.Seeds.From + o.seeds
		}
		srcs[i] = source{label: filepath.Base(f), spec: spec, err: err}
	}
	return srcs, nil
}

// flagSpec assembles the spec the config flags describe. It checks
// the syntax and the -faults values (see parseFaults); the other
// ranges and kinds are Spec.Build's to judge.
func (o options) flagSpec() (scenario.Spec, error) {
	crashes, err := parseCrashes(o.crash)
	plan, err2 := parseFaults(o.faults, o.n, o.horizon)
	if err := cmp.Or(err, err2); err != nil {
		return scenario.Spec{}, err
	}
	oracle := oracleDefaults[o.fd]
	oracle.Kind = o.fd
	s := scenario.Spec{
		Name:     fmt.Sprintf("%s/%s/n=%d", o.algo, o.fd, o.n),
		N:        o.n,
		Horizon:  o.horizon,
		Seeds:    scenario.SeedSpec{From: o.seed, To: o.seed + o.seeds},
		Protocol: scenario.ProtocolSpec{Kind: o.algo},
		Oracle:   oracle,
		Crashes:  crashes,
		Plan:     plan,
	}
	if len(plan) > 0 {
		s.Schema = scenario.SchemaV3
	}
	switch o.algo {
	case scenario.ProtocolTRB:
		s.Protocol.Waves = o.waves
	case scenario.ProtocolAbcast, scenario.ProtocolReduction:
		s.Protocol.MaxInstances = 30
	case scenario.ProtocolSFlooding, scenario.ProtocolRotating, scenario.ProtocolMarabout, scenario.ProtocolPartialOrder:
		s.Stop = scenario.StopSpec{Kind: scenario.StopDecided}
	}
	return s, nil
}

// parseProcess reads a process ID, with or without its "p".
func parseProcess(s string) (int, error) {
	return strconv.Atoi(strings.TrimPrefix(strings.TrimSpace(s), "p"))
}

// parseCrashes reads -crash, e.g. "p2@40, p5@120".
func parseCrashes(list string) ([]scenario.CrashSpec, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []scenario.CrashSpec
	for _, item := range strings.Split(list, ",") {
		proc, at, found := strings.Cut(item, "@")
		id, err := parseProcess(proc)
		t, err2 := strconv.ParseInt(strings.TrimSpace(at), 10, 64)
		if !found || err != nil || err2 != nil {
			return nil, fmt.Errorf("-crash: bad item %q (want pID@time)", strings.TrimSpace(item))
		}
		out = append(out, scenario.CrashSpec{Process: id, At: t})
	}
	return out, nil
}

// parseFaults reads -faults, comma-separated drop=<pct>,
// delay=<ticks> and part=<id>+<id>...@<from>-<until> (repeatable), into
// plan actions. drop and delay set their rate from tick 0; the last one
// given wins, and a zero rate adds nothing. Each part cuts its side's
// boundary at from and heals it at until, or never when until lies past
// the horizon. Windows must not overlap: a heal ends every cut of the
// edges it names, where overlapping windows would mean their union.
// Rates and sides are checked here, against n and the horizon, since
// an error from the plan would point into a plan the user never wrote.
func parseFaults(list string, n int, horizon int64) ([]scenario.ActionSpec, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var drop int
	var delay int64
	var parts []partition
	for _, item := range strings.Split(list, ",") {
		key, val, _ := strings.Cut(strings.TrimSpace(item), "=")
		var err error
		switch key {
		case "drop":
			drop, err = strconv.Atoi(val)
		case "delay":
			delay, err = strconv.ParseInt(val, 10, 64)
		case "part":
			var p partition
			p, err = parsePartition(val)
			parts = append(parts, p)
		default:
			return nil, fmt.Errorf("-faults: unknown fault %q (want drop|delay|part)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("-faults: bad %s %q (want e.g. drop=10,delay=5,part=1+2@40-400)", key, val)
		}
		if drop < 0 || drop > 100 {
			return nil, fmt.Errorf("-faults: drop=%d outside [0, 100]", drop)
		}
		if delay < 0 {
			return nil, fmt.Errorf("-faults: delay=%d must be non-negative", delay)
		}
	}
	var plan []scenario.ActionSpec
	if drop != 0 {
		plan = append(plan, scenario.ActionSpec{Action: "drop", Pct: drop})
	}
	if delay != 0 {
		plan = append(plan, scenario.ActionSpec{Action: "delay", Bound: delay})
	}
	slices.SortStableFunc(parts, func(a, b partition) int { return cmp.Compare(a.from, b.from) })
	for i, p := range parts {
		for _, id := range p.side {
			if id < 1 || id > n {
				return nil, fmt.Errorf("-faults: part=%s names process %d outside [1, %d]", p.text, id, n)
			}
		}
		if len(slices.Compact(slices.Sorted(slices.Values(p.side)))) == n {
			return nil, fmt.Errorf("-faults: part=%s names every process, so it splits nothing off", p.text)
		}
		if p.from >= p.until {
			return nil, fmt.Errorf("-faults: part=%s heals at %d, not after it starts at %d", p.text, p.until, p.from)
		}
		if p.from > horizon {
			return nil, fmt.Errorf("-faults: part=%s starts at %d, beyond the horizon %d", p.text, p.from, horizon)
		}
		if i > 0 && p.from < parts[i-1].until {
			return nil, fmt.Errorf("-faults: part=%s and part=%s overlap in time", parts[i-1].text, p.text)
		}
		plan = append(plan, scenario.ActionSpec{At: p.from, Action: "cut", Side: p.side})
		if p.until <= horizon {
			plan = append(plan, scenario.ActionSpec{At: p.until, Action: "heal", Side: p.side})
		}
	}
	return plan, nil
}

// partition is one part= window: side splits off from the rest at
// from and heals at until.
type partition struct {
	text        string
	side        []int
	from, until int64
}

// parsePartition reads "1+2@40-400": processes 1 and 2 split off from
// the rest from time 40 until the heal at 400.
func parsePartition(val string) (p partition, err error) {
	p.text = val
	side, window, found := strings.Cut(val, "@")
	from, until, found2 := strings.Cut(window, "-")
	if !found || !found2 {
		return p, errors.New("no from-until window")
	}
	for _, s := range strings.Split(side, "+") {
		id, err := parseProcess(s)
		if err != nil {
			return p, err
		}
		p.side = append(p.side, id)
	}
	if p.from, err = strconv.ParseInt(from, 10, 64); err != nil {
		return p, err
	}
	p.until, err = strconv.ParseInt(until, 10, 64)
	return p, err
}

// listScenarioFiles returns the *.json files of dir, sorted so that
// interrupt/resume always walks the directory in the same order.
func listScenarioFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir) // sorted by name
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return files, err
}

// runValidate reports every spec's verdict (all failures, not just the
// first) and returns the exit code.
func runValidate(srcs []source) int {
	bad := 0
	for _, src := range srcs {
		if src.err != nil {
			fmt.Fprintf(os.Stderr, "fdsim: %s: %v\n", src.label, src.err)
			bad++
			continue
		}
		fmt.Printf("%s: ok %s seeds [%d, %d) %s\n",
			src.label, src.spec.Name, src.spec.Seeds.From, src.spec.Seeds.To, short(src.sc.ConfigDigest))
	}
	if bad > 0 {
		return fail(fmt.Errorf("%d invalid spec(s) of %d", bad, len(srcs)))
	}
	fmt.Fprintf(os.Stderr, "fdsim: all %d spec(s) valid\n", len(srcs))
	return 0
}

// sweepReport is one spec's slot in the sweep's JSON report.
type sweepReport struct {
	Source       string             `json:"source"`
	Scenario     string             `json:"scenario"`
	ConfigDigest string             `json:"config_digest"`
	Seeds        scenario.SeedSpec  `json:"seeds"`
	Stats        harness.AuditStats `json:"stats"`
}

// checkpointPath is src's checkpoint in dir ("" without a dir), named
// after the source and its config digest without the seed range, so a
// changed seed range meets its old checkpoint and is refused.
func checkpointPath(dir string, src source) (string, error) {
	s := src.spec
	s.Seeds = scenario.SeedSpec{}
	digest, err := s.ConfigDigest()
	if dir == "" || err != nil {
		return "", err
	}
	return filepath.Join(dir, strings.TrimSuffix(src.label, ".json")+"-"+short(digest)[:8]+".ckpt"), nil
}

// runSweep streams every spec over its seed range, in order.
func runSweep(o options, srcs []source) int {
	if o.checkpoints != "" {
		if err := os.MkdirAll(o.checkpoints, 0o755); err != nil {
			return fail(err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var reports []sweepReport
	for _, src := range srcs {
		ckpt, err := checkpointPath(o.checkpoints, src)
		if err != nil {
			return fail(err)
		}
		seeds := src.spec.Seeds
		fmt.Fprintf(os.Stderr, "fdsim: %s seeds [%d, %d) (%s)\n", src.sc.Name, seeds.From, seeds.To, src.label)
		stats, err := harness.Stream(src.sc, harness.SeedRange{From: seeds.From, To: seeds.To},
			harness.AuditReducer(audit(src.spec)), harness.StreamOptions{
				Workers: o.workers, ChunkSize: o.chunk, Checkpoint: ckpt, Context: ctx,
			})
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "fdsim: interrupted in %s after %d runs; re-run the same command to resume from -checkpoints\n",
				src.label, stats.Runs)
			return 130
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "fdsim: %s: %d runs, digest %s, %d audit failure(s)\n",
			src.sc.Name, stats.Runs, short(stats.Digest), stats.AuditFailures)
		reports = append(reports, sweepReport{src.label, src.sc.Name, src.sc.ConfigDigest, seeds, stats})
	}

	data, err := json.MarshalIndent(reports, "", "  ")
	if err == nil {
		_, err = os.Stdout.Write(append(data, '\n'))
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// runOne executes and reports the spec's run at its first seed.
func runOne(src source, verbose bool) int {
	s, sc := src.spec, src.sc
	seed := s.Seeds.From
	cfg := sc.Config(seed)
	var links sim.LinkFaults
	if sc.Faults != nil {
		links = *sc.Faults
	}
	fmt.Printf("algo=%s fd=%s n=%d seed=%d\npattern: %v\nlinks: %v\n\n",
		s.Protocol.Kind, cfg.Oracle.Name(), s.N, seed, cfg.Pattern, links)

	r := sc.Run(seed)
	if r.Err != nil {
		return fail(r.Err)
	}
	fmt.Printf("run: %v\n\n", r.Trace)
	if err := reportRun(s, r.Trace, verbose); err != nil {
		return fail(err)
	}
	return 0
}

// short abbreviates a digest to 16 hex digits, dropping any
// "sha256:" prefix.
func short(digest string) string {
	if _, hex, found := strings.Cut(digest, ":"); found {
		digest = hex
	}
	return digest[:min(len(digest), 16)]
}
