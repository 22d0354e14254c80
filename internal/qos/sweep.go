package qos

import (
	"math"
	"math/rand"
	"time"

	"realisticfd/internal/harness"
	"realisticfd/internal/heartbeat"
)

// ArrivalModel generates a synthetic heartbeat arrival sequence with
// the statistics of a real link: normally-jittered inter-arrival
// times, probabilistic loss, and an optional crash after which nothing
// arrives. All randomness is seeded.
type ArrivalModel struct {
	// Interval is the sender's heartbeat period.
	Interval time.Duration
	// JitterStd is the standard deviation of the one-way delay jitter.
	JitterStd time.Duration
	// DropPct is the percentage (0..100) of heartbeats lost.
	DropPct int
	// CrashAfter, when positive, crashes the sender that long into the
	// run.
	CrashAfter time.Duration
	// OutageStart/OutageDuration, when OutageDuration is positive,
	// silence the link for that window: heartbeats sent in
	// [OutageStart, OutageStart+OutageDuration) from the epoch are
	// lost, then the link heals — the timeline analogue of a network
	// partition with heal-at-t.
	OutageStart    time.Duration
	OutageDuration time.Duration
	// Duration is the observation window length.
	Duration time.Duration
	// SamplePeriod is how often the monitor is queried.
	SamplePeriod time.Duration
	// Seed drives jitter and loss.
	Seed int64
}

// Replay drives est with the model's synthetic arrivals and query
// samples, returning the resulting timeline. Virtual time starts at
// the epoch; nothing sleeps.
func (am ArrivalModel) Replay(est heartbeat.Estimator) *Timeline {
	start := time.Unix(0, 0)
	rng := rand.New(rand.NewSource(am.Seed))
	tl := NewTimeline(start)

	var crashAt time.Time
	if am.CrashAfter > 0 {
		crashAt = start.Add(am.CrashAfter)
		tl.Crash(crashAt)
	}

	// Generate arrival instants: sent every Interval, delayed by
	// |N(0, JitterStd)|, dropped with DropPct. Arrivals can reorder
	// slightly under jitter; estimators ignore non-monotone arrivals,
	// as a real monitor reading a clock would.
	var arrivals []time.Time
	for sent := start; sent.Before(start.Add(am.Duration)); sent = sent.Add(am.Interval) {
		if !crashAt.IsZero() && !sent.Before(crashAt) {
			break
		}
		if am.DropPct > 0 && rng.Intn(100) < am.DropPct {
			continue
		}
		jitter := time.Duration(math.Abs(rng.NormFloat64()) * float64(am.JitterStd))
		// The outage filter runs after every RNG draw, so enabling an
		// outage does not shift the jitter/loss stream: the same seed
		// yields the same arrivals outside the silent window.
		if am.OutageDuration > 0 {
			sinceStart := sent.Sub(start)
			if sinceStart >= am.OutageStart && sinceStart < am.OutageStart+am.OutageDuration {
				continue
			}
		}
		arrivals = append(arrivals, sent.Add(jitter))
	}

	// Interleave arrivals and query samples in time order.
	ai := 0
	tl.sampleEvery(am.SamplePeriod, start.Add(am.Duration), func(q time.Time) bool {
		for ai < len(arrivals) && !arrivals[ai].After(q) {
			est.Observe(arrivals[ai])
			ai++
		}
		return est.Suspect(q)
	})
	return tl
}

// SweepPoint is one (configuration, metrics) row of a QoS sweep.
type SweepPoint struct {
	Estimator string
	Crash     Metrics // run where the sender crashes mid-window
	Steady    Metrics // failure-free run (mistakes only)
	// Outage is the run where the link goes silent for a while and
	// heals; the suspicion episodes it induces are mistakes, and
	// OutageRecovered reports whether the estimator trusts the sender
	// again by the end of the window.
	Outage          Metrics
	OutageRecovered bool
}

// Config is one estimator configuration in a sweep.
type Config struct {
	Label string
	Make  func() heartbeat.Estimator
}

// Sweep replays a crash scenario, a steady-state scenario and a
// healed-outage scenario for each estimator configuration, pairing
// detection speed against false-suspicion cost — the E9 frontier. The
// configurations replay concurrently on workers goroutines (≤ 0 means
// GOMAXPROCS); results keep input order, so the sweep is deterministic
// at any parallelism. Make must build estimators without shared state.
func Sweep(base ArrivalModel, configs []Config, workers int) []SweepPoint {
	return harness.SeedMap(harness.Seeds(len(configs)), workers, func(i int64) SweepPoint {
		cfg := configs[i]
		crashModel := base
		if crashModel.CrashAfter <= 0 {
			crashModel.CrashAfter = base.Duration / 2
		}
		steadyModel := base
		steadyModel.CrashAfter = 0

		outageModel := steadyModel
		if outageModel.OutageDuration <= 0 {
			outageModel.OutageStart = 2 * base.Duration / 5
			outageModel.OutageDuration = base.Duration / 10
		}

		crashTL := crashModel.Replay(cfg.Make())
		steadyTL := steadyModel.Replay(cfg.Make())
		outageTL := outageModel.Replay(cfg.Make())
		return SweepPoint{
			Estimator:       cfg.Label,
			Crash:           crashTL.Compute(),
			Steady:          steadyTL.Compute(),
			Outage:          outageTL.Compute(),
			OutageRecovered: !outageTL.FinalSuspected(),
		}
	})
}
