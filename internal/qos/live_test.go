package qos

import (
	"math/rand"
	"testing"
	"time"
)

// TestFoldFlipsMatchesDirectRecording holds the one-pass fold to the
// reference that records every query's verdict directly and classifies
// the samples one by one (refFold): identical metrics and final verdict
// over random flip streams. Half the streams flip only on the query
// grid, rarely, so long constant runs are the rule, with crashes in or
// after the window; the other half flip at arbitrary instants, before
// start and after end too, repeat verdicts, and mix in a zero period,
// inverted windows and crashes before the window.
func TestFoldFlipsMatchesDirectRecording(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20000; trial++ {
		start := time.Unix(1_700_000_000, rng.Int63n(int64(time.Second)))
		period := time.Duration(1 + rng.Int63n(int64(50*time.Millisecond)))
		samples := rng.Intn(400)
		end := start.Add(time.Duration(samples) * period)
		// Occasionally stretch end past the sample grid to exercise
		// the tail rule.
		if rng.Intn(3) == 0 {
			end = end.Add(time.Duration(rng.Int63n(int64(period))))
		}
		span := int64(end.Sub(start)) + 1

		var crashAt time.Time
		var flips []Flip
		if trial%2 == 0 {
			if rng.Intn(2) == 0 {
				crashAt = start.Add(time.Duration(rng.Int63n(span + int64(50*time.Millisecond))))
			}
			verdict := false
			for q := start.Add(period); !q.After(end); q = q.Add(period) {
				// Flip with some probability; crashed targets trend
				// toward suspected to exercise detection streaks.
				pFlip := 10
				if !crashAt.IsZero() && q.After(crashAt) && !verdict {
					pFlip = 40
				}
				if rng.Intn(100) < pFlip {
					verdict = !verdict
					flips = append(flips, Flip{AtUnixNano: q.UnixNano(), Suspected: verdict})
				}
			}
		} else {
			switch rng.Intn(6) {
			case 0:
				period = 0
			case 1:
				end = start.Add(-time.Duration(1 + rng.Int63n(span)))
			}
			switch rng.Intn(4) {
			case 0:
				crashAt = start.Add(-time.Duration(1 + rng.Int63n(span)))
			case 1:
				crashAt = start.Add(time.Duration(rng.Int63n(2 * span)))
			}
			at := start.Add(-time.Duration(rng.Int63n(span/4 + 1)))
			for n := rng.Intn(30); n > 0; n-- {
				at = at.Add(time.Duration(rng.Int63n(span/8 + 1)))
				flips = append(flips, Flip{AtUnixNano: at.UnixNano(), Suspected: rng.Intn(2) == 0})
			}
		}

		want := refFold(start, end, crashAt, flips, period)
		got := FoldFlips(start, end, crashAt, flips, period)
		if got != want {
			t.Fatalf("trial %d (period %v, window %v, crash %v, %d flips):\nfold      %+v\nreference %+v",
				trial, period, end.Sub(start), crashAt, len(flips), got, want)
		}
	}
}

// TestComputeMatchesPerSampleReference holds FoldFlips to the
// per-sample classifier it replaced (refCompute): a random verdict
// stream is recorded at every query, turned into flips at the queries
// where the verdict changes, and folded over the same grid. Flips are
// rare, so long constant runs are the rule, and the crash, when there
// is one, lands in or after the window.
func TestComputeMatchesPerSampleReference(t *testing.T) {
	t.Parallel()
	base := time.Unix(1000, 0)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nSamples := 1 + rng.Intn(60)
		period := time.Duration(5+rng.Intn(50)) * time.Millisecond

		var crashAt time.Time
		if rng.Intn(2) == 0 {
			crashAt = base.Add(time.Duration(rng.Intn(nSamples*int(period)/int(time.Millisecond)+50)) * time.Millisecond)
		}

		var raw []sample
		var flips []Flip
		at := base
		suspected := false
		for i := 0; i < nSamples; i++ {
			at = at.Add(period)
			if rng.Intn(100) < 25 { // flip rarely: long constant runs
				suspected = !suspected
				flips = append(flips, Flip{AtUnixNano: at.UnixNano(), Suspected: suspected})
			}
			raw = append(raw, sample{at: at, suspected: suspected})
		}

		got := FoldFlips(base, at, crashAt, flips, period)
		want := refCompute(base, at, crashAt, raw)
		want.FinalSuspected = suspected
		if got != want {
			t.Fatalf("seed %d (crashAt=%v): metrics diverge\nfold: %+v\nref:  %+v", seed, crashAt, got, want)
		}
	}
}

func TestFoldFlipsEdges(t *testing.T) {
	start := time.Unix(0, 0)
	end := start.Add(time.Second)
	// Degenerate inputs yield empty metrics rather than panics.
	if m := FoldFlips(start, end, time.Time{}, nil, 0); m.Samples != 0 {
		t.Fatalf("zero period: %+v", m)
	}
	if m := FoldFlips(end, start, time.Time{}, nil, time.Millisecond); m.Samples != 0 {
		t.Fatalf("inverted window: %+v", m)
	}
	// No flips at all: never suspected, full accuracy.
	m := FoldFlips(start, end, time.Time{}, nil, 100*time.Millisecond)
	if m.Samples == 0 || m.Mistakes != 0 || m.QueryAccuracy != 1 {
		t.Fatalf("quiet window: %+v", m)
	}
	// One permanent suspicion after a crash: detected, T_D measured
	// from the crash to the flip.
	crash := start.Add(300 * time.Millisecond)
	flip := start.Add(500 * time.Millisecond)
	m = FoldFlips(start, end, crash, []Flip{{AtUnixNano: flip.UnixNano(), Suspected: true}}, 100*time.Millisecond)
	if !m.Detected {
		t.Fatalf("crash not detected: %+v", m)
	}
	if m.DetectionTime != 200*time.Millisecond {
		t.Fatalf("T_D = %v, want 200ms", m.DetectionTime)
	}
	// A flip before the first sample still sets the initial verdict.
	m = FoldFlips(start, end, time.Time{}, []Flip{{AtUnixNano: start.UnixNano(), Suspected: true}}, 250*time.Millisecond)
	if m.Mistakes == 0 || m.QueryAccuracy != 0 {
		t.Fatalf("pre-window flip ignored: %+v", m)
	}
}
