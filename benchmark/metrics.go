package main

import "fmt"

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit string
	higher     bool    // true when a larger value is better
	bound      float64 // end-to-end only: tolerated worsening, as a share
}

// endToEnd lists the metrics a user of the repository sees. The bounds
// are the regression tolerances BENCHMARK.json records; the test in
// this package holds the two lists together.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "seeds_per_s", unit: "1/s", higher: true, bound: 0.20},
	{name: "allocs_per_seed", unit: "count", bound: 0.02},
	{name: "alloc_kb_per_seed", unit: "KB", bound: 0.02},
	{name: "detect_ms_p50", unit: "ms", bound: 0.10},
	{name: "detect_ms_p90", unit: "ms", bound: 0.10},
	{name: "query_accuracy_min", unit: "ratio", higher: true, bound: 0.02},
	{name: "cpu_s_per_node_s", unit: "s/s", bound: 0.25},
	{name: "gossip_bytes_per_node_s", unit: "B/s", bound: 0.02},
}

// perLayer lists the ledger: one entry per measurement of a single
// package under internal/. README.md says which end-to-end metric each
// one should move, and on which workload.
var perLayer = []metricDef{
	{name: "sim.run_us", unit: "us"},
	{name: "sim.steps_per_seed", unit: "count"},
	{name: "sim.step_ns", unit: "ns"},
	{name: "sim.policy_ns_per_step", unit: "ns"},
	{name: "sim.digest_us", unit: "us"},
	{name: "sim.execute_n8_us", unit: "us"},
	{name: "fd.oracle_ns_per_query", unit: "ns"},
	{name: "fd.queries_per_step", unit: "ratio"},
	{name: "fd.check_us", unit: "us"},
	{name: "harness.fold_us", unit: "us"},
	{name: "harness.par_speedup", unit: "ratio", higher: true},
	{name: "harness.workers", unit: "count", higher: true},
	{name: "scenario.parse_us", unit: "us"},
	{name: "scenario.build_us", unit: "us"},
	{name: "scenario.compile_plan_us", unit: "us"},
	{name: "experiments.e1_ms", unit: "ms"},
	{name: "experiments.e2_ms", unit: "ms"},
	{name: "experiments.e3_ms", unit: "ms"},
	{name: "experiments.e4_ms", unit: "ms"},
	{name: "experiments.e5_ms", unit: "ms"},
	{name: "experiments.e6_ms", unit: "ms"},
	{name: "experiments.e7_ms", unit: "ms"},
	{name: "experiments.e8_ms", unit: "ms"},
	{name: "experiments.e9_ms", unit: "ms"},
	{name: "consensus.sflooding_run_us", unit: "us"},
	{name: "consensus.rotating_run_us", unit: "us"},
	{name: "trb.wave_us", unit: "us"},
	{name: "abcast.total_order_us", unit: "us"},
	{name: "heartbeat.encode_ns_n64", unit: "ns"},
	{name: "heartbeat.encode_ns_n256", unit: "ns"},
	{name: "heartbeat.encode_ns_n1024", unit: "ns"},
	{name: "heartbeat.decode_ns_n64", unit: "ns"},
	{name: "heartbeat.decode_ns_n256", unit: "ns"},
	{name: "heartbeat.decode_ns_n1024", unit: "ns"},
	{name: "heartbeat.payload_bytes_n64", unit: "B"},
	{name: "heartbeat.payload_bytes_n256", unit: "B"},
	{name: "heartbeat.payload_bytes_n1024", unit: "B"},
	{name: "heartbeat.observe_ns_fixed", unit: "ns"},
	{name: "heartbeat.observe_ns_chen", unit: "ns"},
	{name: "heartbeat.observe_ns_phi", unit: "ns"},
	{name: "heartbeat.suspect_ns_fixed", unit: "ns"},
	{name: "heartbeat.suspect_ns_chen", unit: "ns"},
	{name: "heartbeat.suspect_ns_phi", unit: "ns"},
	{name: "heartbeat.merge_us_n256", unit: "us"},
	{name: "heartbeat.round_burst_us_n256", unit: "us"},
	{name: "heartbeat.frames_per_node_round", unit: "count"},
	{name: "heartbeat.bytes_per_frame", unit: "B"},
	{name: "heartbeat.rounds_ratio", unit: "ratio", higher: true},
	{name: "heartbeat.detect_margin_ms", unit: "ms"},
	{name: "heartbeat.false_suspicions", unit: "count"},
	{name: "transport.tcp_frames_per_s", unit: "1/s", higher: true},
	{name: "transport.tcp_send_us", unit: "us"},
	{name: "transport.tcp_rtt_us_p50", unit: "us"},
	{name: "transport.tcp_inbox_drops", unit: "count"},
	{name: "transport.frame_bytes_n256", unit: "B"},
	{name: "transport.envelope_overhead", unit: "ratio"},
	{name: "transport.faulthook_decide_ns", unit: "ns"},
	{name: "transport.hook_frames", unit: "count"},
	{name: "transport.hook_drop_ratio", unit: "ratio"},
	{name: "membership.feed_update_us_n64", unit: "us"},
	{name: "cluster.overhead_ms", unit: "ms"},
	{name: "cluster.reports_ratio", unit: "ratio", higher: true},
	{name: "cluster.round_overrun_ratio", unit: "ratio", higher: true},
	{name: "cluster.samples_ratio", unit: "ratio", higher: true},
	{name: "trace_overhead_ratio", unit: "ratio"},
}

// exactCounts are the layer metrics that must read identically on two
// runs of the same code at the same seed; -aa checks them.
var exactCounts = []string{
	"sim.steps_per_seed",
	"heartbeat.payload_bytes_n64", "heartbeat.payload_bytes_n256", "heartbeat.payload_bytes_n1024",
	"transport.frame_bytes_n256",
}

// result is what one workload reports for one seed.
type result struct {
	workload  string
	attempted int
	failed    int
	failures  []string           // one line per failed check, whatever its count
	wall      float64            // seconds the untraced timed section took
	e2e       map[string]float64 // the end-to-end metrics that apply
	layer     map[string]float64 // the ledger entries this run measured
	notes     []string           // digests, sample counts, yardsticks
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one attempted operation and records it as failed unless
// ok holds.
func (r *result) check(ok bool, format string, args ...any) {
	bad := 0
	if !ok {
		bad = 1
	}
	r.checkN(1, bad, format, args...)
}

// checkN counts n attempted operations of which bad failed.
func (r *result) checkN(n, bad int, format string, args ...any) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad
		r.failures = append(r.failures, fmt.Sprintf("%d× ", bad)+fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// filled returns the value the driver line carries for an end-to-end
// metric. The driver wants every metric from every workload, never
// zero, and no time that reads the same on every run, while most
// metrics here belong to one half of the repository. So a cell outside
// a metric's workloads holds a filler that says nothing and cannot
// raise a false alarm: 1, plus the timed section's wall seconds in
// millionths so that no two runs read alike. README.md tabulates the
// cells.
func (r *result) filled(name string) float64 {
	if v, ok := r.e2e[name]; ok {
		return v
	}
	return 1 + r.wall*1e-6
}
