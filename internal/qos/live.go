package qos

import "time"

// Flip is one suspicion verdict change-point reported by a live
// cluster node about one monitored peer, stamped when the node's
// timeout for the peer expired or the refuting heartbeat arrived: the
// node ships only the flips, exactly the compression Timeline uses
// internally — a control-channel report for a multi-minute run is a
// handful of entries per peer instead of thousands of samples.
type Flip struct {
	// AtUnixNano is the wall-clock instant of the verdict change.
	AtUnixNano int64 `json:"at"`
	// Suspected is the verdict from this instant on.
	Suspected bool `json:"s"`
}

// FoldFlips reconstructs the Timeline of an observer querying its
// verdict every period over [start, end] — a flip counts from the first
// point of that grid at or after it — and returns its metrics: the
// observer shipped the change-points, and the ground-truth
// crash instant (zero when the target never crashed) is known only
// here — the orchestrator, not the observed cluster, knows when it
// pulled the trigger. The reconstruction replays the periodic samples
// against the flip list, so live runs produce the same
// Chen-Toueg-Aguilera vocabulary (T_D, λ_M, T_M, P_A) as the
// simulator's E-table rows, directly comparable cell for cell.
func FoldFlips(start, end time.Time, crashAt time.Time, flips []Flip, period time.Duration) Metrics {
	if end.Before(start) {
		return Metrics{}
	}
	tl := NewTimeline(start)
	if !crashAt.IsZero() {
		tl.Crash(crashAt)
	}
	verdict := false
	idx := 0
	tl.sampleEvery(period, end, func(q time.Time) bool {
		for idx < len(flips) && !time.Unix(0, flips[idx].AtUnixNano).After(q) {
			verdict = flips[idx].Suspected
			idx++
		}
		return verdict
	})
	return tl.Compute()
}
