package qos

import (
	"strings"
	"testing"
	"time"
)

func TestEmptyTimeline(t *testing.T) {
	t.Parallel()
	// A window with no query in it: no period to query on.
	m := FoldFlips(origin, at(time.Second), time.Time{}, []Flip{flip(0, true)}, 0)
	if m.Samples != 0 || m.Detected || m.Mistakes != 0 {
		t.Fatalf("empty timeline = %+v", m)
	}
}

func TestCrashBeforeFirstSample(t *testing.T) {
	t.Parallel()
	m := FoldFlips(origin, at(200*time.Millisecond), at(10*time.Millisecond), []Flip{flip(100*time.Millisecond, true)}, 100*time.Millisecond)
	if !m.Detected {
		t.Fatal("not detected")
	}
	if m.DetectionTime != 90*time.Millisecond {
		t.Fatalf("T_D = %v, want 90ms", m.DetectionTime)
	}
	// No alive samples: query accuracy over an empty set is 0, and no
	// mistakes are possible.
	if m.Mistakes != 0 {
		t.Fatalf("mistakes = %d", m.Mistakes)
	}
}

func TestAlwaysSuspectedAliveProcess(t *testing.T) {
	t.Parallel()
	// A paranoid detector suspecting a live process throughout: one
	// long open mistake, P_A = 0.
	m := FoldFlips(origin, at(100*time.Millisecond), time.Time{}, []Flip{flip(0, true)}, 10*time.Millisecond)
	if m.Mistakes != 1 {
		t.Fatalf("mistakes = %d, want 1 open episode", m.Mistakes)
	}
	if m.QueryAccuracy != 0 {
		t.Fatalf("P_A = %v, want 0", m.QueryAccuracy)
	}
	if m.Detected {
		t.Fatal("phantom detection")
	}
}

func TestMetricsString(t *testing.T) {
	t.Parallel()
	s := FoldFlips(origin, at(100*time.Millisecond), at(50*time.Millisecond), []Flip{flip(100*time.Millisecond, true)}, 100*time.Millisecond).String()
	for _, want := range []string{"T_D=", "λ_M=", "T_M=", "P_A="} {
		if !strings.Contains(s, want) {
			t.Errorf("Metrics.String() = %q missing %q", s, want)
		}
	}
}

func TestReplayWithoutCrashNeverDetects(t *testing.T) {
	t.Parallel()
	m := ArrivalModel{
		Interval:     10 * time.Millisecond,
		Duration:     500 * time.Millisecond,
		SamplePeriod: 5 * time.Millisecond,
		Seed:         2,
	}
	if got := m.Replay(&fakeEst{}); got.Detected {
		t.Fatalf("detected with no crash: %+v", got)
	}
}

// fakeEst never suspects.
type fakeEst struct{}

func (fakeEst) Name() string           { return "fake" }
func (fakeEst) SetEpoch(time.Time)     {}
func (fakeEst) Observe(time.Time)      {}
func (fakeEst) Suspect(time.Time) bool { return false }
func (fakeEst) Deadline() time.Time    { return time.Time{} }
func (fakeEst) LastArrival() time.Time { return time.Time{} }
