package qos

import (
	"testing"
	"time"

	"realisticfd/internal/heartbeat"
)

var origin = time.Unix(0, 0)

func at(d time.Duration) time.Time { return origin.Add(d) }

// flip is the verdict change-point to s at d after the origin.
func flip(d time.Duration, s bool) Flip { return Flip{AtUnixNano: at(d).UnixNano(), Suspected: s} }

func TestMetricsCleanDetection(t *testing.T) {
	t.Parallel()
	// Trusted while alive, crash at 1s, suspected from 1.3s on.
	m := FoldFlips(origin, at(2*time.Second), at(time.Second), []Flip{flip(1300*time.Millisecond, true)}, 100*time.Millisecond)
	if !m.Detected {
		t.Fatal("crash not detected")
	}
	if m.DetectionTime != 300*time.Millisecond {
		t.Fatalf("T_D = %v, want 300ms", m.DetectionTime)
	}
	if m.Mistakes != 0 {
		t.Fatalf("mistakes = %d, want 0", m.Mistakes)
	}
	if m.QueryAccuracy != 1 {
		t.Fatalf("P_A = %v, want 1", m.QueryAccuracy)
	}
}

func TestMetricsFalseSuspicionEpisodes(t *testing.T) {
	t.Parallel()
	// Alive throughout; two false episodes: [200,400) and [700,800).
	ms := time.Millisecond
	m := FoldFlips(origin, at(time.Second), time.Time{},
		[]Flip{flip(200*ms, true), flip(400*ms, false), flip(700*ms, true), flip(800*ms, false)}, 100*ms)
	if m.Detected {
		t.Fatal("detected a crash that never happened")
	}
	if m.Mistakes != 2 {
		t.Fatalf("mistakes = %d, want 2", m.Mistakes)
	}
	// Episode lengths measured between samples: 200ms and 100ms → avg
	// 150ms.
	if m.AvgMistakeDuration != 150*time.Millisecond {
		t.Fatalf("T_M = %v, want 150ms", m.AvgMistakeDuration)
	}
	// 10 alive samples, 3 wrong (200,300,700) → P_A = 0.7.
	if m.QueryAccuracy < 0.69 || m.QueryAccuracy > 0.71 {
		t.Fatalf("P_A = %v, want 0.7", m.QueryAccuracy)
	}
	if m.MistakeRate <= 0 {
		t.Fatal("λ_M should be positive")
	}
}

func TestMetricsPrematureSuspicionRollsIntoDetection(t *testing.T) {
	t.Parallel()
	// Suspected from 0.9s, crash at 1s, suspected to the end: T_D = 0
	// and the premature 100ms counts as a mistake.
	m := FoldFlips(origin, at(2*time.Second), at(time.Second), []Flip{flip(900*time.Millisecond, true)}, 100*time.Millisecond)
	if !m.Detected {
		t.Fatal("not detected")
	}
	if m.DetectionTime != 0 {
		t.Fatalf("T_D = %v, want 0 (suspicion predates crash)", m.DetectionTime)
	}
	if m.Mistakes != 1 {
		t.Fatalf("mistakes = %d, want 1 (the premature window)", m.Mistakes)
	}
}

func TestMetricsNeverDetected(t *testing.T) {
	t.Parallel()
	m := FoldFlips(origin, at(time.Second), at(500*time.Millisecond), nil, 100*time.Millisecond)
	if m.Detected {
		t.Fatal("reported detection with all-trust verdicts")
	}
}

func TestReplayFixedTimeoutDetectsCrash(t *testing.T) {
	t.Parallel()
	model := ArrivalModel{
		Interval:     20 * time.Millisecond,
		JitterStd:    time.Millisecond,
		CrashAfter:   time.Second,
		Duration:     2 * time.Second,
		SamplePeriod: 5 * time.Millisecond,
		Seed:         1,
	}
	m := model.Replay(&heartbeat.FixedTimeout{Timeout: 60 * time.Millisecond})
	if !m.Detected {
		t.Fatal("crash not detected")
	}
	// Detection should land within ~timeout+interval of the crash.
	if m.DetectionTime > 120*time.Millisecond {
		t.Fatalf("T_D = %v, want ≤ 120ms", m.DetectionTime)
	}
	if m.Mistakes != 0 {
		t.Fatalf("clean link produced %d mistakes", m.Mistakes)
	}
}

// TestReplayNonDividingSamplePeriodCoversTail is the regression test
// for the unobserved-tail bug: when SamplePeriod does not divide
// Duration, Replay used to stop sampling at the last multiple of the
// period, so anything that happened in the window's tail — like a
// crash turning into permanent suspicion — was invisible and the final
// verdict was a stale instant's.
func TestReplayNonDividingSamplePeriodCoversTail(t *testing.T) {
	t.Parallel()
	model := ArrivalModel{
		Interval:   20 * time.Millisecond,
		CrashAfter: 930 * time.Millisecond,
		Duration:   time.Second,
		// 300ms does not divide 1s: in-loop samples land at 300/600/900ms
		// and the 100ms tail is where detection happens.
		SamplePeriod: 300 * time.Millisecond,
		Seed:         1,
	}
	m := model.Replay(&heartbeat.FixedTimeout{Timeout: 60 * time.Millisecond})
	if m.Samples != 4 {
		t.Fatalf("recorded %d samples, want 4 (3 in-period + 1 tail)", m.Samples)
	}
	if !m.FinalSuspected {
		t.Fatal("crash at 930ms undetected: the tail sample at 1s never ran")
	}
	if !m.Detected {
		t.Fatalf("metrics say undetected: %+v", m)
	}

	// A dividing period must not double-sample the endpoint.
	model.SamplePeriod = 250 * time.Millisecond
	if m = model.Replay(&heartbeat.FixedTimeout{Timeout: 60 * time.Millisecond}); m.Samples != 4 {
		t.Fatalf("dividing period recorded %d samples, want exactly 4", m.Samples)
	}
}

func TestReplayTightTimeoutMistakesUnderJitterLoss(t *testing.T) {
	t.Parallel()
	// A timeout barely above the interval, 20% loss, heavy jitter:
	// false suspicions are inevitable — the completeness/accuracy
	// trade-off the paper's P-emulation discussion turns on.
	model := ArrivalModel{
		Interval:     20 * time.Millisecond,
		JitterStd:    8 * time.Millisecond,
		DropPct:      20,
		Duration:     3 * time.Second,
		SamplePeriod: 5 * time.Millisecond,
		Seed:         7,
	}
	tight := model.Replay(&heartbeat.FixedTimeout{Timeout: 25 * time.Millisecond})
	loose := model.Replay(&heartbeat.FixedTimeout{Timeout: 200 * time.Millisecond})
	if tight.Mistakes == 0 {
		t.Fatal("tight timeout under loss made no mistakes; model too forgiving")
	}
	if loose.Mistakes >= tight.Mistakes {
		t.Fatalf("loose timeout (%d mistakes) not better than tight (%d)", loose.Mistakes, tight.Mistakes)
	}
	if tight.QueryAccuracy >= loose.QueryAccuracy {
		t.Fatalf("P_A ordering wrong: tight %.4f ≥ loose %.4f", tight.QueryAccuracy, loose.QueryAccuracy)
	}
}

func TestSweepFrontier(t *testing.T) {
	t.Parallel()
	base := ArrivalModel{
		Interval:     20 * time.Millisecond,
		JitterStd:    4 * time.Millisecond,
		DropPct:      10,
		Duration:     2 * time.Second,
		SamplePeriod: 5 * time.Millisecond,
		Seed:         3,
	}
	points := Sweep(base, []Config{
		{Label: "fixed-30ms", Make: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: 30 * time.Millisecond} }},
		{Label: "fixed-100ms", Make: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: 100 * time.Millisecond} }},
		{Label: "chen", Make: func() heartbeat.Estimator { return &heartbeat.Chen{Window: 16, Alpha: 40 * time.Millisecond} }},
		{Label: "phi-8", Make: func() heartbeat.Estimator {
			return &heartbeat.PhiAccrual{Window: 64, Threshold: 8, MinStdDev: 2 * time.Millisecond}
		}},
	}, 2)
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	for _, pt := range points {
		if !pt.Crash.Detected {
			t.Errorf("%s: crash not detected", pt.Estimator)
		}
		if pt.Steady.Detected {
			t.Errorf("%s: phantom detection in steady state", pt.Estimator)
		}
	}
	// The faster detector must be the sloppier one: fixed-30ms detects
	// faster but mistakes more than fixed-100ms.
	var fast, slow SweepPoint
	for _, pt := range points {
		switch pt.Estimator {
		case "fixed-30ms":
			fast = pt
		case "fixed-100ms":
			slow = pt
		}
	}
	if fast.Crash.DetectionTime >= slow.Crash.DetectionTime {
		t.Errorf("T_D ordering wrong: 30ms %v ≥ 100ms %v", fast.Crash.DetectionTime, slow.Crash.DetectionTime)
	}
	if fast.Steady.Mistakes <= slow.Steady.Mistakes {
		t.Errorf("λ_M ordering wrong: 30ms %d ≤ 100ms %d mistakes", fast.Steady.Mistakes, slow.Steady.Mistakes)
	}
}
