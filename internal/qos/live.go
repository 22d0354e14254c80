package qos

import "time"

// Flip is one suspicion verdict change-point about one monitored
// process: a live cluster node stamps it when its timeout for the peer
// expired or the refuting heartbeat arrived, and ArrivalModel.Replay
// stamps it by the same rule on a synthetic arrival trace. A report is
// a handful of flips per peer instead of thousands of samples.
type Flip struct {
	// AtUnixNano is the wall-clock instant of the verdict change.
	AtUnixNano int64 `json:"at"`
	// Suspected is the verdict from this instant on.
	Suspected bool `json:"s"`
}

// FoldFlips returns the metrics of an observer querying its verdict
// every period over [start, end] — at each grid point, and at end
// itself when the period does not divide the window, so the tail is
// observed and FinalSuspected is the verdict at end. A flip counts from
// the first query at or after it; flips are in time order. The
// ground-truth crash instant (zero when the target never crashed) is
// known only to the caller: the orchestrator, not the observed cluster,
// knows when it pulled the trigger. A query before the crash is alive
// time: it counts toward P_A, and a suspicion episode that opens there
// is a mistake; the last episode, when it covers end after a crash, is
// the detection. So live runs produce the same Chen-Toueg-Aguilera
// vocabulary (T_D, λ_M, T_M, P_A) as the simulator's E-table rows,
// directly comparable cell for cell. A period ≤ 0 or an inverted window
// queries nothing.
func FoldFlips(start, end time.Time, crashAt time.Time, flips []Flip, period time.Duration) Metrics {
	var m Metrics
	if end.Before(start) || period <= 0 {
		return m
	}
	crashed := !crashAt.IsZero()
	aliveEnd := end
	if crashed && crashAt.Before(aliveEnd) {
		aliveEnd = crashAt
	}
	var (
		aliveSamples, aliveCorrect int
		mistakeTotal               time.Duration
		episodeStart               time.Time
		suspected                  bool
		idx                        int
	)
	for q, last := start.Add(period), false; !last; q = q.Add(period) {
		if !q.Before(end) {
			q, last = end, true
		}
		verdict := suspected
		for idx < len(flips) && !time.Unix(0, flips[idx].AtUnixNano).After(q) {
			verdict = flips[idx].Suspected
			idx++
		}
		m.Samples++
		if !crashed || q.Before(crashAt) {
			aliveSamples++
			if !verdict {
				aliveCorrect++
			}
		}
		switch {
		case verdict && !suspected:
			episodeStart = q
		case !verdict && suspected && episodeStart.Before(aliveEnd):
			// The episode [episodeStart, q) ended with a trust verdict:
			// it was a mistake for its alive portion.
			m.Mistakes++
			endAlive := q
			if endAlive.After(aliveEnd) {
				endAlive = aliveEnd
			}
			mistakeTotal += endAlive.Sub(episodeStart)
		}
		suspected = verdict
	}
	m.FinalSuspected = suspected
	if suspected {
		if crashed {
			// Final streak: detection. A streak that starts before the
			// crash gives T_D = 0 (Chen-Toueg-Aguilera measure T_D from
			// the crash), and its premature part was still a mistake.
			m.Detected = true
			if episodeStart.After(crashAt) {
				m.DetectionTime = episodeStart.Sub(crashAt)
			} else if episodeStart.Before(crashAt) {
				m.Mistakes++
				mistakeTotal += crashAt.Sub(episodeStart)
			}
		} else {
			// Suspected at the end of an alive window: an open mistake.
			m.Mistakes++
			mistakeTotal += end.Sub(episodeStart)
		}
	}
	if m.Mistakes > 0 {
		m.AvgMistakeDuration = mistakeTotal / time.Duration(m.Mistakes)
	}
	if aliveSpan := aliveEnd.Sub(start).Seconds(); aliveSpan > 0 {
		m.MistakeRate = float64(m.Mistakes) / aliveSpan
	}
	if aliveSamples > 0 {
		m.QueryAccuracy = float64(aliveCorrect) / float64(aliveSamples)
	}
	return m
}
