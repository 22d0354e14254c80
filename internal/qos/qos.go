// Package qos implements the quality-of-service metrics for failure
// detectors introduced by Chen, Toueg and Aguilera, applied to the
// heartbeat estimators of package heartbeat: detection time T_D,
// average mistake rate λ_M, average mistake duration T_M, and query
// accuracy probability P_A.
//
// This quantifies the paper's practical trade-off (§1.3): emulating a
// Perfect detector over a real network means choosing a point on the
// completeness/accuracy frontier; the membership layer then makes the
// chosen suspicions "accurate" by exclusion. Experiment E9 sweeps
// that frontier.
package qos

import (
	"fmt"
	"time"
)

// Timeline records the boolean suspicion verdicts about one monitored
// process, sampled at (strictly increasing) times, plus the ground
// truth crash time (zero Time means the process never crashed).
//
// Verdicts are stored as change-points only — one flip entry per
// verdict that differs from its predecessor — with the per-sample
// accuracy tallies folded in at Record time. A detector's verdict is
// piecewise-constant (long trust stretches punctuated by suspicion
// episodes), so memory is O(episodes) instead of O(samples); E9's
// frontier sweeps record millions of verdicts but only dozens of
// flips.
type Timeline struct {
	start   time.Time
	end     time.Time
	crashAt time.Time // zero: never crashed
	count   int       // verdicts recorded
	flips   []sample  // change-points: first verdict, then each differing one

	// Alive-window accuracy tallies, maintained incrementally; valid
	// because Crash may not reclassify already-recorded samples.
	aliveSamples int
	aliveCorrect int
}

type sample struct {
	at        time.Time
	suspected bool
}

// NewTimeline opens an observation window starting at start.
func NewTimeline(start time.Time) *Timeline {
	return &Timeline{start: start, end: start}
}

// Crash records the ground-truth crash instant. It must be called
// before any sample it would reclassify: the accuracy tallies are
// folded in as verdicts arrive, so moving the crash across recorded
// samples would silently corrupt them — the panic makes the ordering
// contract explicit. (Every caller — the E9 replays and the live
// collectors — learns of the crash before recording later verdicts.)
func (tl *Timeline) Crash(at time.Time) {
	if tl.count > 0 && (!tl.crashAt.IsZero() || !at.After(tl.end)) {
		panic("qos: Crash must be recorded before the samples it classifies")
	}
	tl.crashAt = at
}

// Record appends one verdict; times must be non-decreasing.
func (tl *Timeline) Record(at time.Time, suspected bool) {
	if at.Before(tl.end) {
		panic("qos: timeline samples must be time-ordered")
	}
	if tl.crashAt.IsZero() || at.Before(tl.crashAt) {
		tl.aliveSamples++
		if !suspected {
			tl.aliveCorrect++
		}
	}
	if tl.count == 0 || tl.flips[len(tl.flips)-1].suspected != suspected {
		tl.flips = append(tl.flips, sample{at: at, suspected: suspected})
	}
	tl.count++
	tl.end = at
}

// sampleEvery records the verdicts of a monitor queried every period
// over the window from tl's start to end: at each grid point, and at end
// itself when the period does not divide the window, so that the tail
// is observed and FinalSuspected is the verdict at end. verdictAt is
// called once per sample, in time order. A period ≤ 0 records nothing.
func (tl *Timeline) sampleEvery(period time.Duration, end time.Time, verdictAt func(q time.Time) bool) {
	if period <= 0 {
		return
	}
	var lastQ time.Time
	for q := tl.start.Add(period); !q.After(end); q = q.Add(period) {
		tl.Record(q, verdictAt(q))
		lastQ = q
	}
	if !lastQ.Equal(end) {
		tl.Record(end, verdictAt(end))
	}
}

// SampleCount returns the number of verdicts recorded.
func (tl *Timeline) SampleCount() int { return tl.count }

// FinalSuspected reports the last verdict of the window — false when
// the timeline is empty. A healed outage must leave this false: trust
// restored.
func (tl *Timeline) FinalSuspected() bool {
	if tl.count == 0 {
		return false
	}
	return tl.flips[len(tl.flips)-1].suspected
}

// Metrics are the Chen-Toueg-Aguilera QoS figures computed over one
// timeline.
type Metrics struct {
	// DetectionTime is the lag from the crash to the beginning of the
	// final, permanent suspicion (T_D). Zero when the process never
	// crashed or was never (permanently) detected.
	DetectionTime time.Duration
	// Detected reports whether a crashed process was permanently
	// suspected by the end of the window (completeness at horizon).
	Detected bool
	// Mistakes is the number of false-suspicion episodes (transitions
	// to suspected while the process was alive).
	Mistakes int
	// MistakeRate is mistakes per second of alive time (λ_M).
	MistakeRate float64
	// AvgMistakeDuration is the mean length of false-suspicion
	// episodes (T_M).
	AvgMistakeDuration time.Duration
	// QueryAccuracy is the fraction of alive-time samples that
	// correctly answered "trust" (P_A).
	QueryAccuracy float64
	// Samples is the number of verdicts recorded.
	Samples int
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("T_D=%v detected=%v mistakes=%d λ_M=%.4f/s T_M=%v P_A=%.4f",
		m.DetectionTime, m.Detected, m.Mistakes, m.MistakeRate, m.AvgMistakeDuration, m.QueryAccuracy)
}

// Compute derives the metrics from the timeline.
func (tl *Timeline) Compute() Metrics {
	var m Metrics
	m.Samples = tl.count
	if m.Samples == 0 {
		return m
	}

	crashed := !tl.crashAt.IsZero()
	aliveEnd := tl.end
	if crashed && tl.crashAt.Before(aliveEnd) {
		aliveEnd = tl.crashAt
	}

	// Walk the change-points: a suspicion episode starts at a flip to
	// suspected and ends at the next flip back to trust — exactly the
	// sample pair the per-sample walk used to find, since an episode's
	// boundary samples are by definition verdict changes. The last
	// suspicion streak covering the end of the window is the detection
	// (when the process crashed).
	var (
		mistakeTotal time.Duration
		episodeStart time.Time
		inEpisode    bool
	)
	for _, s := range tl.flips {
		switch {
		case s.suspected && !inEpisode:
			inEpisode = true
			episodeStart = s.at
		case !s.suspected && inEpisode:
			inEpisode = false
			// The episode [episodeStart, s.at) ended with a trust
			// verdict: it was a mistake for its alive portion.
			if episodeStart.Before(aliveEnd) {
				m.Mistakes++
				endAlive := s.at
				if endAlive.After(aliveEnd) {
					endAlive = aliveEnd
				}
				mistakeTotal += endAlive.Sub(episodeStart)
			}
		}
	}
	if inEpisode {
		if crashed {
			// Final streak: detection. Its start may precede the
			// crash (premature suspicion rolls into detection, per
			// Chen-Toueg-Aguilera's T_D definition the detection time
			// is measured from the crash; a streak starting earlier
			// gives T_D = 0).
			m.Detected = true
			if episodeStart.After(tl.crashAt) {
				m.DetectionTime = episodeStart.Sub(tl.crashAt)
			}
			if episodeStart.Before(tl.crashAt) {
				// The premature part was still a mistake.
				m.Mistakes++
				mistakeTotal += tl.crashAt.Sub(episodeStart)
			}
		} else {
			// Suspected at the end of an alive window: an open
			// mistake.
			m.Mistakes++
			mistakeTotal += tl.end.Sub(episodeStart)
		}
	}

	if m.Mistakes > 0 {
		m.AvgMistakeDuration = mistakeTotal / time.Duration(m.Mistakes)
	}
	aliveSpan := aliveEnd.Sub(tl.start).Seconds()
	if aliveSpan > 0 {
		m.MistakeRate = float64(m.Mistakes) / aliveSpan
	}
	if tl.aliveSamples > 0 {
		m.QueryAccuracy = float64(tl.aliveCorrect) / float64(tl.aliveSamples)
	}
	return m
}
