package cluster

import (
	"reflect"
	"testing"
	"time"

	"realisticfd/internal/qos"
	"realisticfd/internal/scenario"
)

// foldT0 is the plan's time zero in the fold table: every instant below
// is milliseconds after it.
var foldT0 = time.Unix(1_700_000_000, 0)

func foldAt(ms int64) time.Time { return foldT0.Add(time.Duration(ms) * time.Millisecond) }

// flipsAt builds one target's verdict change-points from (ms, suspected)
// pairs.
func flipsAt(pts ...any) []qos.Flip {
	out := make([]qos.Flip, 0, len(pts)/2)
	for i := 0; i+1 < len(pts); i += 2 {
		out = append(out, qos.Flip{AtUnixNano: foldAt(int64(pts[i].(int))).UnixNano(), Suspected: pts[i+1].(bool)})
	}
	return out
}

// foldReport is one observer's report over [startMs, 10 000 ms].
func foldReport(id int, startMs int64, flips map[int][]qos.Flip, members, excluded, known []int) *NodeReport {
	return &NodeReport{
		ID:            id,
		StartUnixNano: foldAt(startMs).UnixNano(),
		EndUnixNano:   foldAt(10_000).UnixNano(),
		Flips:         flips,
		Members:       members,
		Excluded:      excluded,
		Known:         known,
	}
}

// foldCase is one row of the fold table: the ground truth the
// orchestrator recorded and the reports the survivors sent.
type foldCase struct {
	name    string
	n       int
	boundMs int
	pairs   bool
	kills   map[int]int64 // plan instants (ms)
	leaves  map[int]int64
	joins   map[int]int64
	paused  []int
	reports map[int]*NodeReport

	wantReports, wantExpected int
	wantKills                 []KillReport
	wantPauses                []PauseReport
	wantJoins                 []JoinReport
	wantMistakes              int
	wantMinAcc                float64
	wantPairs                 int
	wantFailures              []string
}

// foldRow runs the orchestrator's fold over one row's ground truth: a
// kill or leave at plan instant t marks the node departed at foldT0+t,
// a join stamps its joined instant, and the run lasted 10 s.
func foldRow(c foldCase) *Result {
	plan := &scenario.FaultPlan{N: c.n, Kills: c.kills, Leaves: c.leaves, Joins: c.joins}
	states := make([]*nodeState, c.n+1)
	for id := 1; id <= c.n; id++ {
		st := &nodeState{id: id}
		if at, ok := c.kills[id]; ok {
			st.killed, st.killedAt = true, foldAt(at)
		} else if at, ok := c.leaves[id]; ok {
			st.killed, st.killedAt = true, foldAt(at)
		}
		states[id] = st
	}
	for _, id := range c.paused {
		states[id].pausedEver = true
	}
	joined := make(map[int]time.Time, len(c.joins))
	for id, at := range c.joins {
		joined[id] = foldAt(at)
	}
	r := &run{
		cfg:    Config{IncludePairs: c.pairs},
		spec:   scenario.Spec{Name: c.name, N: c.n, Topology: scenario.TopologySpec{Kind: scenario.TopologyChord}},
		live:   scenario.LiveParams{IntervalMs: 50, SamplePeriodMs: 100, BoundMs: c.boundMs},
		plan:   plan,
		states: states,
		joined: joined,
	}
	return r.fold(c.reports, nil, 10*time.Second)
}

// TestFoldGroundTruth pins the fold of hand-built reports against the
// recorded kill, leave, pause and join instants: detection inside and
// outside bound_ms, a resumed node still suspected (and one suspected
// only by a flip stamped after the report ended), mistakes on clean
// targets, join adoption (a departed joiner counts as adopted by an
// observer that excluded it), holes in the flips, an empty collection
// and the pair matrix.
func TestFoldGroundTruth(t *testing.T) {
	all3 := []int{1, 2, 3}
	all4 := []int{1, 2, 3, 4}
	suspect4At := func(ms int) map[int][]qos.Flip { return map[int][]qos.Flip{4: flipsAt(ms, true)} }
	cases := []foldCase{
		{
			name: "kill detected inside the bound", n: 4, boundMs: 3000,
			kills: map[int]int64{4: 1000},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, suspect4At(1500), all3, []int{4}, all4),
				2: foldReport(2, 0, suspect4At(1600), all3, []int{4}, all4),
				3: foldReport(3, 0, suspect4At(1900), all3, []int{4}, all4),
			},
			wantReports: 3, wantExpected: 3,
			wantKills:  []KillReport{{Target: 4, AtMs: 1000, Observers: 3, Detected: 3, MeanDetectionMs: 2000.0 / 3, MaxDetectionMs: 900}},
			wantMinAcc: 1,
		},
		{
			name: "kill detected outside the bound", n: 4, boundMs: 3000,
			kills: map[int]int64{4: 1000},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, suspect4At(1500), all3, []int{4}, all4),
				2: foldReport(2, 0, suspect4At(5000), all3, []int{4}, all4),
				3: foldReport(3, 0, nil, all4, nil, all4),
			},
			wantReports: 3, wantExpected: 3,
			wantKills:  []KillReport{{Target: 4, AtMs: 1000, Observers: 3, Detected: 2, MeanDetectionMs: 2250, MaxDetectionMs: 4000}},
			wantMinAcc: 1,
			wantFailures: []string{
				"node 2 did not suspect departed node 4 within 3s (detected=true T_D=4s)",
				"node 3 did not suspect departed node 4 within 3s (detected=false T_D=0s)",
			},
		},
		{
			name: "leave", n: 4, boundMs: 3000,
			leaves: map[int]int64{4: 2000},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, suspect4At(2500), all3, []int{4}, all4),
				2: foldReport(2, 0, suspect4At(2500), all3, []int{4}, all4),
				3: foldReport(3, 0, suspect4At(2500), all3, []int{4}, all4),
			},
			wantReports: 3, wantExpected: 3,
			wantKills:  []KillReport{{Target: 4, AtMs: 2000, Observers: 3, Detected: 3, MeanDetectionMs: 500, MaxDetectionMs: 500}},
			wantMinAcc: 1,
		},
		{
			name: "resumed node still suspected, bound set", n: 3, boundMs: 3000,
			paused: []int{3},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, map[int][]qos.Flip{3: flipsAt(2000, true, 3000, false)}, all3, nil, all3),
				2: foldReport(2, 0, map[int][]qos.Flip{3: flipsAt(2000, true)}, all3, nil, all3),
				3: foldReport(3, 0, nil, all3, nil, all3),
			},
			wantReports: 3, wantExpected: 3,
			wantPauses:   []PauseReport{{Target: 3, SuspectedAtEndBy: []int{2}}},
			wantMinAcc:   1,
			wantFailures: []string{"node 2 still suspects resumed node 3 at collection"},
		},
		{
			name: "resumed node still suspected, no bound", n: 3,
			paused: []int{3},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, map[int][]qos.Flip{3: flipsAt(2000, true, 3000, false)}, all3, nil, all3),
				2: foldReport(2, 0, map[int][]qos.Flip{3: flipsAt(2000, true)}, all3, nil, all3),
				3: foldReport(3, 0, nil, all3, nil, all3),
			},
			wantReports: 3, wantExpected: 3,
			wantPauses: []PauseReport{{Target: 3, SuspectedAtEndBy: []int{2}}},
			wantMinAcc: 1,
		},
		{
			// A suspicion the gossiper stamped after the node read its
			// report's end instant is not the verdict at collection.
			name: "resumed node suspected only after collection", n: 3, boundMs: 3000,
			paused: []int{3},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, nil, all3, nil, all3),
				2: foldReport(2, 0, map[int][]qos.Flip{3: flipsAt(2000, true, 3000, false, 10_001, true)}, all3, nil, all3),
				3: foldReport(3, 0, nil, all3, nil, all3),
			},
			wantReports: 3, wantExpected: 3,
			wantPauses: []PauseReport{{Target: 3, SuspectedAtEndBy: []int{}}},
			wantMinAcc: 1,
		},
		{
			name: "mistakes and accuracy on clean targets", n: 3, boundMs: 3000,
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, map[int][]qos.Flip{2: flipsAt(1000, true, 2000, false)}, all3, nil, all3),
				2: foldReport(2, 0, map[int][]qos.Flip{3: flipsAt(4000, true, 4500, false, 6000, true, 6500, false)}, all3, nil, all3),
				3: foldReport(3, 0, nil, all3, nil, all3),
			},
			wantReports: 3, wantExpected: 3,
			wantMistakes: 3,
			wantMinAcc:   0.9,
		},
		{
			name: "live joiner adopted", n: 4, boundMs: 3000,
			joins: map[int]int64{4: 2000},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, nil, all4, nil, all4),
				2: foldReport(2, 0, nil, all4, nil, all4),
				3: foldReport(3, 0, nil, all4, nil, all4),
				4: foldReport(4, 2000, nil, all4, nil, all4),
			},
			wantReports: 4, wantExpected: 4,
			wantJoins:  []JoinReport{{Target: 4, AtMs: 2000, Observers: 3, KnownBy: 3, InViewOf: 3}},
			wantMinAcc: 1,
		},
		{
			name: "live joiner missing from one view", n: 4, boundMs: 3000,
			joins: map[int]int64{4: 2000},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, nil, all4, nil, all4),
				2: foldReport(2, 0, nil, all4, nil, all4),
				3: foldReport(3, 0, nil, all3, nil, all4),
				4: foldReport(4, 2000, nil, all4, nil, all4),
			},
			wantReports: 4, wantExpected: 4,
			wantJoins:    []JoinReport{{Target: 4, AtMs: 2000, Observers: 3, KnownBy: 3, InViewOf: 2}},
			wantMinAcc:   1,
			wantFailures: []string{"joiner 4 absent from the membership view of 1/3 survivors"},
		},
		{
			// Killed after its join and then excluded everywhere: the
			// §1.3 emulation working, not a join failure.
			name: "departed joiner excluded by every survivor", n: 4, boundMs: 3000,
			joins: map[int]int64{4: 2000},
			kills: map[int]int64{4: 4000},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, suspect4At(4500), all3, []int{4}, all4),
				2: foldReport(2, 0, suspect4At(4500), all3, []int{4}, all4),
				3: foldReport(3, 0, suspect4At(4500), all3, []int{4}, all4),
			},
			wantReports: 3, wantExpected: 3,
			wantKills:  []KillReport{{Target: 4, AtMs: 4000, Observers: 3, Detected: 3, MeanDetectionMs: 500, MaxDetectionMs: 500}},
			wantJoins:  []JoinReport{{Target: 4, AtMs: 2000, Observers: 3, KnownBy: 3, InViewOf: 3}},
			wantMinAcc: 1,
		},
		{
			name: "zero reports", n: 3, boundMs: 3000,
			reports:      map[int]*NodeReport{},
			wantExpected: 3,
			wantMinAcc:   0,
		},
		{
			name: "pair matrix", n: 4, pairs: true,
			kills: map[int]int64{4: 1000},
			reports: map[int]*NodeReport{
				1: foldReport(1, 0, suspect4At(1500), all3, []int{4}, all4),
				2: foldReport(2, 0, suspect4At(1500), all3, []int{4}, all4),
				3: foldReport(3, 0, suspect4At(1500), all3, []int{4}, all4),
			},
			wantReports: 3, wantExpected: 3,
			wantKills:  []KillReport{{Target: 4, AtMs: 1000, Observers: 3, Detected: 3, MeanDetectionMs: 500, MaxDetectionMs: 500}},
			wantMinAcc: 1,
			wantPairs:  9, // 3 observers × 3 targets each
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := foldRow(c)
			if res.Reports != c.wantReports || res.Expected != c.wantExpected {
				t.Errorf("reports %d/%d, want %d/%d", res.Reports, res.Expected, c.wantReports, c.wantExpected)
			}
			if !reflect.DeepEqual(res.Kills, c.wantKills) {
				t.Errorf("kills %+v, want %+v", res.Kills, c.wantKills)
			}
			if !reflect.DeepEqual(res.Pauses, c.wantPauses) {
				t.Errorf("pauses %+v, want %+v", res.Pauses, c.wantPauses)
			}
			if !reflect.DeepEqual(res.Joins, c.wantJoins) {
				t.Errorf("joins %+v, want %+v", res.Joins, c.wantJoins)
			}
			if res.FalseSuspicionMistakes != c.wantMistakes || res.MinQueryAccuracy != c.wantMinAcc {
				t.Errorf("mistakes %d, min accuracy %v; want %d, %v",
					res.FalseSuspicionMistakes, res.MinQueryAccuracy, c.wantMistakes, c.wantMinAcc)
			}
			if len(res.Pairs) != c.wantPairs {
				t.Errorf("%d pair rows, want %d", len(res.Pairs), c.wantPairs)
			}
			if !reflect.DeepEqual(res.Failures, c.wantFailures) {
				t.Errorf("failures %q, want %q", res.Failures, c.wantFailures)
			}
		})
	}
}
