package qos

import (
	"math/rand"
	"testing"
	"time"

	"realisticfd/internal/heartbeat"
)

// replayCase decodes one arrival model and its three estimators, so the
// random test and the fuzzer draw from the same inputs. An aligned case
// puts every deadline on the query grid: no jitter, an interval and
// margins that are whole multiples of the sample period. That is where
// a suspicion stamped at the deadline instead of a nanosecond after it
// changes a verdict.
func replayCase(seed int64, aligned bool, period, interval, jitter, margin uint16, drop, crash, outage, phi uint8) (ArrivalModel, []func() heartbeat.Estimator) {
	am := ArrivalModel{DropPct: int(drop % 60), Seed: seed}
	var timeout time.Duration
	if aligned {
		am.SamplePeriod = time.Duration(1+period%8) * time.Millisecond
		am.Interval = time.Duration(1+interval%10) * am.SamplePeriod
		timeout = time.Duration(margin%12) * am.SamplePeriod
	} else {
		am.SamplePeriod = 500*time.Microsecond + time.Duration(period)*37*time.Nanosecond
		am.Interval = time.Millisecond + time.Duration(interval)*331*time.Nanosecond
		am.JitterStd = time.Duration(jitter%1024) * am.Interval / 1024
		timeout = time.Duration(margin) * 911 * time.Nanosecond
	}
	am.Duration = time.Duration(40+int(interval)%80) * am.Interval
	if crash >= 128 {
		am.CrashAfter = am.Duration * time.Duration(crash-128) / 100 // past the window from 100 on
	}
	if outage >= 128 {
		am.OutageStart = am.Duration * time.Duration(outage%10) / 10
		am.OutageDuration = am.Duration * time.Duration(1+outage%5) / 20
	}
	return am, []func() heartbeat.Estimator{
		func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: timeout} },
		func() heartbeat.Estimator { return &heartbeat.Chen{Window: 1 + int(margin%32), Alpha: timeout} },
		func() heartbeat.Estimator {
			return &heartbeat.PhiAccrual{
				Window:       2 + int(margin%64),
				Threshold:    0.05 + float64(phi)/10,
				MinStdDev:    time.Duration(jitter%8) * time.Millisecond,
				FirstTimeout: timeout,
			}
		},
	}
}

// checkReplay holds the deadline-armed Replay to the polling reference
// for each estimator of a case.
func checkReplay(t *testing.T, am ArrivalModel, makers []func() heartbeat.Estimator) {
	t.Helper()
	for _, mk := range makers {
		got, want := am.Replay(mk()), refReplay(am, mk())
		if got != want {
			t.Fatalf("%s over %+v:\nreplay  %+v\npolling %+v", mk().Name(), am, got, want)
		}
	}
}

// TestReplayMatchesPolling holds Replay, which stamps flips at the
// estimator's deadline and folds them, to the polling replay it
// replaced, over random models with and without loss, crashes and
// outages: the same metrics and the same final verdict. Half the
// models are grid-aligned.
func TestReplayMatchesPolling(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 3000; trial++ {
		u16 := func() uint16 { return uint16(rng.Intn(1 << 16)) }
		u8 := func() uint8 { return uint8(rng.Intn(1 << 8)) }
		am, makers := replayCase(rng.Int63(), trial%2 == 0, u16(), u16(), u16(), u16(), u8(), u8(), u8(), u8())
		checkReplay(t, am, makers)
	}
}

// FuzzReplayMatchesPolling searches for an arrival model on which
// Replay and the polling reference disagree.
func FuzzReplayMatchesPolling(f *testing.F) {
	f.Add(int64(17), true, uint16(1), uint16(9), uint16(0), uint16(5), uint8(10), uint8(178), uint8(0), uint8(80))
	f.Add(int64(3), false, uint16(900), uint16(2000), uint16(200), uint16(30000), uint8(20), uint8(0), uint8(200), uint8(40))
	f.Add(int64(1), true, uint16(0), uint16(0), uint16(0), uint16(0), uint8(0), uint8(255), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, aligned bool, period, interval, jitter, margin uint16, drop, crash, outage, phi uint8) {
		am, makers := replayCase(seed, aligned, period, interval, jitter, margin, drop, crash, outage, phi)
		checkReplay(t, am, makers)
	})
}
