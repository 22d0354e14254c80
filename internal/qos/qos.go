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
// that frontier. Both of its backends report verdicts the same way, as
// change-points (Flip): E9's synthetic arrival replays and E10's live
// cluster nodes alike, and FoldFlips is the one path from them to
// Metrics.
package qos

import (
	"fmt"
	"time"
)

// Metrics are the Chen-Toueg-Aguilera QoS figures of one monitor's
// verdicts about one process over an observation window.
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
	// Samples is the number of verdicts queried.
	Samples int
	// FinalSuspected is the verdict at the end of the window. A healed
	// outage or a resumed process must leave it false: trust restored.
	FinalSuspected bool
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("T_D=%v detected=%v mistakes=%d λ_M=%.4f/s T_M=%v P_A=%.4f",
		m.DetectionTime, m.Detected, m.Mistakes, m.MistakeRate, m.AvgMistakeDuration, m.QueryAccuracy)
}
