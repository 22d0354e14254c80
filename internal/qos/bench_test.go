package qos

import (
	"math/rand"
	"testing"
	"time"

	"realisticfd/internal/heartbeat"
)

func BenchmarkReplay(b *testing.B) {
	b.ReportAllocs()
	m := ArrivalModel{
		Interval:     20 * time.Millisecond,
		JitterStd:    4 * time.Millisecond,
		DropPct:      10,
		CrashAfter:   time.Second,
		Duration:     2 * time.Second,
		SamplePeriod: 5 * time.Millisecond,
		Seed:         1,
	}
	for b.Loop() {
		m.Replay(&heartbeat.PhiAccrual{Window: 64, Threshold: 8, MinStdDev: 2 * time.Millisecond})
	}
}

// BenchmarkFoldFlips folds a 5 s window queried every 2 ms, one flip
// about every 50 queries.
func BenchmarkFoldFlips(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	start, end := time.Unix(0, 0), time.Unix(5, 0)
	var flips []Flip
	for t, s := start, false; t.Before(end); t = t.Add(time.Duration(rng.Int63n(int64(200 * time.Millisecond)))) {
		s = !s
		flips = append(flips, Flip{AtUnixNano: t.UnixNano(), Suspected: s})
	}
	b.ReportAllocs()
	for b.Loop() {
		FoldFlips(start, end, time.Time{}, flips, 2*time.Millisecond)
	}
}
