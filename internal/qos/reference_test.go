package qos

import (
	"time"

	"realisticfd/internal/heartbeat"
)

// The references below are the package's earlier paths to Metrics,
// kept as the oracles of the one fold: record every query's verdict as
// a sample, then classify the samples one by one. FoldFlips and Replay
// must agree with them metric for metric, the final verdict included.

// sample is one recorded query verdict.
type sample struct {
	at        time.Time
	suspected bool
}

// refGrid records the verdicts of a monitor queried every period over
// [start, end]: at each grid point, and at end itself when the period
// does not divide the window. verdictAt is called once per query, in
// time order. A period ≤ 0 records nothing.
func refGrid(start, end time.Time, period time.Duration, verdictAt func(q time.Time) bool) []sample {
	if period <= 0 {
		return nil
	}
	var samples []sample
	var lastQ time.Time
	for q := start.Add(period); !q.After(end); q = q.Add(period) {
		samples = append(samples, sample{at: q, suspected: verdictAt(q)})
		lastQ = q
	}
	if !lastQ.Equal(end) {
		samples = append(samples, sample{at: end, suspected: verdictAt(end)})
	}
	return samples
}

// refMetrics is refCompute over the samples of a window opened at
// start, with the last sample's verdict as the final one.
func refMetrics(start, crashAt time.Time, samples []sample) Metrics {
	if len(samples) == 0 {
		return Metrics{}
	}
	last := samples[len(samples)-1]
	m := refCompute(start, last.at, crashAt, samples)
	m.FinalSuspected = last.suspected
	return m
}

// refFold is the fold through a recorded timeline that FoldFlips
// replaced: query the grid, set the verdict from every flip at or
// before the query, and classify the recorded samples.
func refFold(start, end, crashAt time.Time, flips []Flip, period time.Duration) Metrics {
	if end.Before(start) {
		return Metrics{}
	}
	verdict, idx := false, 0
	return refMetrics(start, crashAt, refGrid(start, end, period, func(q time.Time) bool {
		for idx < len(flips) && !time.Unix(0, flips[idx].AtUnixNano).After(q) {
			verdict = flips[idx].Suspected
			idx++
		}
		return verdict
	}))
}

// refReplay is the polling Replay that the deadline-armed one
// replaced: at each query, observe every arrival up to it in generated
// order, then ask the estimator's Suspect.
func refReplay(am ArrivalModel, est heartbeat.Estimator) Metrics {
	start := time.Unix(0, 0)
	var crashAt time.Time
	if am.CrashAfter > 0 {
		crashAt = start.Add(am.CrashAfter)
	}
	arrivals := am.arrivals(start, crashAt)
	ai := 0
	return refMetrics(start, crashAt, refGrid(start, start.Add(am.Duration), am.SamplePeriod, func(q time.Time) bool {
		for ai < len(arrivals) && !arrivals[ai].After(q) {
			est.Observe(arrivals[ai])
			ai++
		}
		return est.Suspect(q)
	}))
}

// refCompute is the pre-change-point Compute, kept verbatim: walk every
// sample, classify it against the crash instant, and track suspicion
// episodes sample by sample.
func refCompute(start, end, crashAt time.Time, samples []sample) Metrics {
	var m Metrics
	m.Samples = len(samples)
	if m.Samples == 0 {
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
		inEpisode                  bool
	)
	for _, s := range samples {
		alive := !crashed || s.at.Before(crashAt)
		if alive {
			aliveSamples++
			if !s.suspected {
				aliveCorrect++
			}
		}
		switch {
		case s.suspected && !inEpisode:
			inEpisode = true
			episodeStart = s.at
		case !s.suspected && inEpisode:
			inEpisode = false
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
			m.Detected = true
			if episodeStart.After(crashAt) {
				m.DetectionTime = episodeStart.Sub(crashAt)
			}
			if episodeStart.Before(crashAt) {
				m.Mistakes++
				mistakeTotal += crashAt.Sub(episodeStart)
			}
		} else {
			m.Mistakes++
			mistakeTotal += end.Sub(episodeStart)
		}
	}
	if m.Mistakes > 0 {
		m.AvgMistakeDuration = mistakeTotal / time.Duration(m.Mistakes)
	}
	aliveSpan := aliveEnd.Sub(start).Seconds()
	if aliveSpan > 0 {
		m.MistakeRate = float64(m.Mistakes) / aliveSpan
	}
	if aliveSamples > 0 {
		m.QueryAccuracy = float64(aliveCorrect) / float64(aliveSamples)
	}
	return m
}
