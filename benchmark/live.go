package main

import (
	"context"
	"embed"
	"fmt"
	"math"
	"sort"
	"time"

	"realisticfd/internal/cluster"
	"realisticfd/internal/scenario"
)

//go:embed specs/*.json
var specFS embed.FS

// liveWorkload is one checked-in fdspec/v3 script run through
// cluster.Run with in-process nodes over loopback TCP.
type liveWorkload struct {
	name string
	// stride is the spacing of the spec's kill victims; -seed shifts
	// every victim by seed mod stride, which keeps them distinct and
	// clear of the nodes the script pauses, cuts and joins.
	stride int
	// probes are the ledger probes that ride with this workload's
	// traced run.
	probes func(*runEnv, *result) error
}

var (
	liveKill = liveWorkload{name: "live-kill-n64", stride: 8, probes: func(env *runEnv, res *result) error {
		probeMembership(env, res)
		if err := probeScenario(env, res); err != nil {
			return err
		}
		return probeTCP(env, res)
	}}
	liveLossy = liveWorkload{name: "live-lossy-n32", stride: 4, probes: func(env *runEnv, res *result) error {
		probeFaultHook(env, res)
		return nil
	}}
)

// liveScript is a spec made ready for one run.
type liveScript struct {
	spec     scenario.Spec
	plan     *scenario.FaultPlan
	scriptMs int64 // warmup + last action + settle
}

// load parses the workload's spec, moves the victims by seed, stretches
// the settle phase so the script lasts -seconds (never shorter than
// checked in), and compiles the plan — nothing is spawned from a spec
// that does not compile.
func (lw liveWorkload) load(env *runEnv) (liveScript, error) {
	data, err := specFS.ReadFile("specs/" + lw.name + ".json")
	if err != nil {
		return liveScript{}, fmt.Errorf("%s: %w", lw.name, err)
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return liveScript{}, err
	}
	if s.Live == nil {
		return liveScript{}, fmt.Errorf("%s: spec has no live section", lw.name)
	}
	shift := int(env.seed % int64(lw.stride))
	var last int64
	for i, a := range s.Plan {
		if a.At > last {
			last = a.At
		}
		if a.Kind() != scenario.ActKill {
			continue
		}
		nodes := make([]int, len(a.Nodes))
		for j, id := range a.Nodes {
			nodes[j] = id + shift
		}
		s.Plan[i].Nodes = nodes
	}
	live := *s.Live
	if spare := int64(env.seconds)*1000 - int64(live.WarmupMs) - last - int64(live.SettleMs); spare > 0 {
		live.SettleMs += int(spare)
	}
	s.Live = &live
	if err := s.Validate(); err != nil {
		return liveScript{}, err
	}
	plan, err := s.CompilePlan()
	if err != nil {
		return liveScript{}, err
	}
	return liveScript{spec: s, plan: plan, scriptMs: int64(live.WarmupMs) + last + int64(live.SettleMs)}, nil
}

// lifetimes says when each node of the script is alive: initial nodes
// from the start, joiners from their join, and a killed or departed
// node until its instant. Paused nodes count as alive, as they do for
// the QoS fold. Assembly takes some 70 ms the script does not show;
// against lifetimes of seconds that is noise.
func (ls liveScript) lifetimes() []lifetime {
	ms := func(at int64) time.Duration {
		return time.Duration(int64(ls.spec.Live.WarmupMs)+at) * time.Millisecond
	}
	lives := make([]lifetime, 0, ls.spec.N)
	for id := 1; id <= ls.spec.N; id++ {
		l := lifetime{to: survivor}
		if at, ok := ls.plan.Joins[id]; ok {
			l.from = ms(at)
		}
		if at, ok := ls.plan.Kills[id]; ok {
			l.to = ms(at)
		} else if at, ok := ls.plan.Leaves[id]; ok {
			l.to = ms(at)
		}
		lives = append(lives, l)
	}
	return lives
}

// livePass is one cluster.Run and its cost.
type livePass struct {
	res        *cluster.Result
	sec        section
	cpuPerNode float64 // CPU reference seconds per node-second, median window
	cpuRaw     float64 // the same as the CPU clock read it
}

func (lw liveWorkload) pass(env *runEnv, ls liveScript, traced bool) (livePass, error) {
	// The deadline is a backstop: a wedged run fails instead of
	// outliving the driver's patience.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(ls.scriptMs)*time.Millisecond+60*time.Second)
	defer cancel()
	var (
		p   livePass
		err error
	)
	p.sec = measure(func() {
		cpu := startCPUSampler(time.Duration(ls.scriptMs) * time.Millisecond / cpuWindows)
		p.res, err = cluster.Run(ctx, cluster.Config{
			Scenario:              &ls.spec,
			Spawner:               cluster.InProcSpawner{},
			Seed:                  env.seed,
			IncludePairs:          true,
			CollectFaultDecisions: traced,
		})
		p.cpuRaw, p.cpuPerNode = cpu.perNodeSecond(ls.lifetimes())
	})
	if err != nil {
		return livePass{}, fmt.Errorf("%s: %w", lw.name, err)
	}
	return p, nil
}

// detections returns the sorted crash→first-suspicion times of every
// observer×victim pair that detected, and how many pairs there were.
func detections(res *cluster.Result) (ms []float64, pairs int) {
	victims := map[int]bool{}
	for _, k := range res.Kills {
		victims[k.Target] = true
		pairs += k.Observers
	}
	for _, p := range res.Pairs {
		if victims[p.Target] && p.Detected {
			ms = append(ms, p.DetectionMs)
		}
	}
	sort.Float64s(ms)
	return ms, pairs
}

func (lw liveWorkload) run(env *runEnv) (*result, error) {
	res := newResult(lw.name)
	var ls liveScript
	setup, err := setupSeconds(func() error {
		var err error
		ls, err = lw.load(env)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	root := env.tr.begin(lw.name, "cluster.run.untraced", -1)
	p, err := lw.pass(env, ls, false)
	env.tr.end(root)
	if err != nil {
		return nil, err
	}
	r := p.res
	det, pairs := detections(r)
	res.checkN(pairs, pairs-len(det), "observer×victim pair never detected (%d of %d detected)", len(det), pairs)
	res.checkN(r.Expected, r.Expected-r.Reports, "expected survivor did not report (%d of %d)", r.Reports, r.Expected)
	for _, f := range r.Failures {
		res.check(false, "cluster: %s", f)
	}
	res.wall = p.sec.wall
	res.e2e["setup_s"] = setup
	res.e2e["detect_ms_p50"] = quantile(det, 0.5)
	res.e2e["detect_ms_p90"] = quantile(det, 0.9)
	res.e2e["query_accuracy_min"] = r.MinQueryAccuracy
	res.e2e["cpu_s_per_node_s"] = p.cpuPerNode
	res.note("%s n=%d interval=%dms %s; plan %s", r.Topology, r.N, r.IntervalMs, r.Estimator, r.PlanDigest)
	wall := time.Duration(p.sec.wall * float64(time.Second))
	res.note("%d detections of %d pairs (%d beyond p90), wall=%.3fs cpu=%.2fs node-seconds=%.1f (the CPU metric is the median of %d windows in reference seconds; as read it is %.6f), loopback TCP",
		len(det), pairs, beyond(len(det), 0.9), p.sec.wall, p.sec.cpu, nodeSeconds(ls.lifetimes(), 0, wall), cpuWindows, p.cpuRaw)

	if env.tr == nil {
		return res, nil
	}

	root = env.tr.begin(lw.name, "cluster.run.traced", -1)
	tp, err := lw.pass(env, ls, true)
	env.tr.end(root)
	if err != nil {
		return nil, err
	}
	lw.ledger(res, ls, tp)
	res.layer["trace_overhead_ratio"] = tp.sec.wall / p.sec.wall
	return res, lw.probes(env, res)
}

// ledger fills the per-layer entries a traced run can see from the
// outside: the fault hooks' tallies and the per-node round and sample
// counts the reports carry.
func (lw liveWorkload) ledger(res *result, ls liveScript, tp livePass) {
	r := tp.res
	live := ls.spec.Live
	res.check(r.Reports == r.Expected && len(r.Failures) == 0, "traced run: %d of %d reports, failures %v", r.Reports, r.Expected, r.Failures)
	res.layer["cluster.overhead_ms"] = tp.sec.wall*1000 - float64(ls.scriptMs)
	res.layer["cluster.reports_ratio"] = float64(r.Reports) / float64(r.Expected)

	paused := map[int]bool{}
	for _, a := range ls.plan.Actions {
		if a.Kind == scenario.ActPause {
			for _, id := range a.Nodes {
				paused[id] = true
			}
		}
	}
	var rounds, samples []float64
	var totalRounds uint64
	for id, rep := range r.NodeReports {
		totalRounds += rep.Rounds
		if paused[id] {
			continue // a frozen node rightly emits and samples less
		}
		lifeMs := float64(rep.EndUnixNano-rep.StartUnixNano) / 1e6
		rounds = append(rounds, float64(rep.Rounds)/(lifeMs/float64(live.IntervalMs)))
		samples = append(samples, float64(rep.Samples)/(lifeMs/float64(live.SamplePeriodMs)))
	}
	res.layer["cluster.round_overrun_ratio"] = median(rounds)
	res.layer["cluster.samples_ratio"] = median(samples)

	if r.FramesSent > 0 {
		res.layer["transport.hook_frames"] = float64(r.FramesSent)
		res.layer["transport.hook_drop_ratio"] = float64(r.FramesDropped) / float64(r.FramesSent)
		// Only survivors report, so their frames are set against their
		// own rounds.
		res.layer["heartbeat.frames_per_node_round"] = float64(r.FramesSent) / float64(totalRounds)
		res.note("frames per node per round %.2f against the 2·⌈log₂ n⌉ = %d yardstick", float64(r.FramesSent)/float64(totalRounds), yardstick(r.N))
	}
	det, _ := detections(r)
	res.layer["heartbeat.detect_margin_ms"] = quantile(det, 0.5) - float64(live.Estimator.TimeoutMs)
	res.layer["heartbeat.false_suspicions"] = float64(r.FalseSuspicionMistakes)
}

// yardstick is 2·⌈log₂ n⌉: the per-node per-round test count of Duarte
// et al. (arXiv:2210.02847) that the gossip fan-out is held against.
func yardstick(n int) int {
	return 2 * int(math.Ceil(math.Log2(float64(n))))
}
