// Package heartbeat implements live, timeout-based failure detection
// over the transport layer: a gossip heartbeat disseminator (Gossiper)
// plus three monitor estimators — fixed timeout, Chen-style adaptive,
// and φ-accrual.
//
// These are the *practical* failure detectors the paper alludes to in
// §1.3: real systems approximate P by timing out on heartbeats and
// excluding the timed-out process via group membership, making every
// suspicion accurate after the fact. The estimators here quantify the
// quality of that approximation (experiment E9, package qos): tighter
// timeouts detect crashes faster but mistake more often — a realistic
// detector cannot be both instantly complete and always accurate.
//
// Every estimator measures a peer's silence from one anchor — its last
// arrival, else the epoch SetEpoch marks, else none and no suspicion —
// and decides only the margin that silence may reach: Timeout for the
// fixed one, the mean interval plus Alpha for Chen, and for φ the
// silence at which φ reaches Threshold, which Deadline finds to the
// nanosecond. Suspect is false at Deadline and true a nanosecond later,
// so the Gossiper's timer, armed at the deadline, is the verdict.
//
// Estimator logic is pure (explicit time arguments, no goroutines or
// wall-clock reads), so tests and QoS sweeps drive it with synthetic
// arrival sequences deterministically.
package heartbeat

import (
	"fmt"
	"math"
	"time"
)

// Estimator judges one monitored peer from the arrival times of its
// heartbeats. Implementations are not safe for concurrent use; the
// Gossiper serializes access.
type Estimator interface {
	// Name identifies the estimator and its parameters.
	Name() string
	// SetEpoch marks when monitoring began: a peer never heard from is
	// judged on its silence since then, so one that is dead on arrival
	// is eventually suspected. Without an epoch it is never suspected.
	SetEpoch(start time.Time)
	// Observe records a heartbeat arrival.
	Observe(arrival time.Time)
	// Suspect reports whether the peer should be suspected at time
	// now, given the arrivals observed so far.
	Suspect(now time.Time) bool
	// Deadline returns the instant up to which Suspect stays false if
	// nothing more arrives — Suspect(Deadline()) is false, a nanosecond
	// later it is true — or the zero time when silence alone never
	// turns the verdict. It is a function of the past arrivals only,
	// like Suspect: a caller that arms a timer at it learns of the
	// timeout when it expires instead of at its next poll.
	Deadline() time.Time
	// LastArrival returns the latest arrival Suspect and Deadline judge
	// on, or the zero time before the first.
	LastArrival() time.Time
}

// arrivals is the record every estimator judges on: the epoch and the
// latest arrival. Silence is measured from the anchor — the last
// arrival, else the epoch, else there is none and nothing is suspected
// — and a peer is suspected once the silence exceeds the estimator's
// margin, so suspect and deadline agree to the nanosecond by
// construction.
type arrivals struct {
	epoch   time.Time
	last    time.Time
	hasLast bool
}

// SetEpoch implements Estimator.
func (a *arrivals) SetEpoch(start time.Time) { a.epoch = start }

// LastArrival implements Estimator.
func (a *arrivals) LastArrival() time.Time { return a.last }

// observe takes arrival as the latest and reports true, or reports
// false for a stale or duplicate one, which changes nothing.
func (a *arrivals) observe(arrival time.Time) bool {
	if a.hasLast && !arrival.After(a.last) {
		return false
	}
	a.last, a.hasLast = arrival, true
	return true
}

// anchor returns the instant silence is measured from; ok is false when
// nothing was heard and no epoch is set.
func (a *arrivals) anchor() (t time.Time, ok bool) {
	if a.hasLast {
		return a.last, true
	}
	return a.epoch, !a.epoch.IsZero()
}

// suspect is the verdict at now for a silence margin.
func (a *arrivals) suspect(now time.Time, margin time.Duration) bool {
	t, ok := a.anchor()
	return ok && now.Sub(t) > margin
}

// deadline is the last instant suspect(·, margin) is false, or zero
// when it never turns.
func (a *arrivals) deadline(margin time.Duration) time.Time {
	t, ok := a.anchor()
	if !ok {
		return time.Time{}
	}
	return t.Add(margin)
}

// ring is the window of the latest inter-arrival times the adaptive
// estimators learn from.
type ring struct {
	intervals []time.Duration
	next      int
	filled    bool
}

// push adds interval d to a window of the latest size intervals (def
// when size ≤ 0) and returns the window.
func (r *ring) push(d time.Duration, size, def int) []time.Duration {
	if r.intervals == nil {
		if size <= 0 {
			size = def
		}
		r.intervals = make([]time.Duration, size)
	}
	r.intervals[r.next] = d
	r.next++
	if r.next == len(r.intervals) {
		r.next = 0
		r.filled = true
	}
	return r.window()
}

// window returns the intervals held, none before the first push.
func (r *ring) window() []time.Duration {
	if r.filled {
		return r.intervals
	}
	return r.intervals[:r.next]
}

// FixedTimeout suspects a peer when no heartbeat arrived for Timeout.
// The simplest — and with a safe margin, the classic group-membership
// — detector.
type FixedTimeout struct {
	// Timeout is the silence threshold.
	Timeout time.Duration

	arrivals
}

var _ Estimator = (*FixedTimeout)(nil)

// Name implements Estimator.
func (f *FixedTimeout) Name() string { return fmt.Sprintf("fixed(%v)", f.Timeout) }

// Observe implements Estimator.
func (f *FixedTimeout) Observe(arrival time.Time) { f.observe(arrival) }

// Suspect implements Estimator.
func (f *FixedTimeout) Suspect(now time.Time) bool { return f.suspect(now, f.Timeout) }

// Deadline implements Estimator.
func (f *FixedTimeout) Deadline() time.Time { return f.deadline(f.Timeout) }

// Chen is the adaptive estimator of Chen, Toueg and Aguilera ("On the
// Quality of Service of Failure Detectors"): it predicts the next
// heartbeat arrival as the mean of the last Window inter-arrival
// times and suspects when the prediction plus the safety margin Alpha
// passes without news.
type Chen struct {
	// Window is the number of inter-arrival samples averaged.
	Window int
	// Alpha is the safety margin added to the predicted arrival.
	Alpha time.Duration

	arrivals
	ring
}

var _ Estimator = (*Chen)(nil)

// Name implements Estimator.
func (c *Chen) Name() string { return fmt.Sprintf("chen(w=%d,α=%v)", c.Window, c.Alpha) }

// Observe implements Estimator.
func (c *Chen) Observe(arrival time.Time) {
	if last, had := c.last, c.hasLast; c.observe(arrival) && had {
		c.push(arrival.Sub(last), c.Window, 16)
	}
}

// margin is the predicted inter-arrival plus Alpha, or Alpha alone
// before the first interval.
func (c *Chen) margin() time.Duration {
	window := c.window()
	if len(window) == 0 {
		return c.Alpha
	}
	var sum time.Duration
	for _, d := range window {
		sum += d
	}
	return sum/time.Duration(len(window)) + c.Alpha
}

// Suspect implements Estimator.
func (c *Chen) Suspect(now time.Time) bool { return c.suspect(now, c.margin()) }

// Deadline implements Estimator.
func (c *Chen) Deadline() time.Time { return c.deadline(c.margin()) }

// PhiAccrual is the φ-accrual estimator of Hayashibara et al. (the
// design popularized by Cassandra and Akka): instead of a binary
// verdict it accrues a suspicion level φ = −log10 P(heartbeat still
// coming), assuming normally distributed inter-arrival times, and
// suspects when φ crosses Threshold.
type PhiAccrual struct {
	// Window is the number of inter-arrival samples kept.
	Window int
	// Threshold is the φ level at which the peer is suspected
	// (Cassandra's default is 8).
	Threshold float64
	// MinStdDev floors the estimated standard deviation, preventing
	// a perfectly regular stream from making φ explode on the first
	// late packet.
	MinStdDev time.Duration
	// FirstTimeout bounds the grace while φ cannot be computed for
	// want of inter-arrival data: after the epoch until a peer's first
	// heartbeat, and after that one until its second. Zero defaults to
	// one second.
	FirstTimeout time.Duration

	arrivals
	ring
	// mean and std are the window's, in nanoseconds, std not floored:
	// computed once per interval taken, read by every Phi, Suspect and
	// Deadline until the next.
	mean, std float64
}

var _ Estimator = (*PhiAccrual)(nil)

// Name implements Estimator.
func (p *PhiAccrual) Name() string {
	return fmt.Sprintf("phi(w=%d,Φ=%.1f)", p.Window, p.Threshold)
}

// Observe implements Estimator.
func (p *PhiAccrual) Observe(arrival time.Time) {
	if last, had := p.last, p.hasLast; p.observe(arrival) && had {
		p.mean, p.std = windowStats(p.push(arrival.Sub(last), p.Window, 64))
	}
}

// windowStats returns the mean and the unfloored standard deviation of a
// non-empty window of inter-arrival times, in nanoseconds.
func windowStats(window []time.Duration) (mean, std float64) {
	var sum float64
	for _, d := range window {
		sum += float64(d)
	}
	mean = sum / float64(len(window))
	var varSum float64
	for _, d := range window {
		dev := float64(d) - mean
		varSum += dev * dev
	}
	return mean, math.Sqrt(varSum / float64(len(window)))
}

// stats returns the mean and the floored standard deviation of the
// inter-arrival window, in nanoseconds; ok is false while the window
// is empty.
func (p *PhiAccrual) stats() (mean, std float64, ok bool) {
	if len(p.window()) == 0 {
		return 0, 0, false
	}
	std = p.std
	if floor := float64(p.MinStdDev); std < floor {
		std = floor
	}
	if std == 0 {
		std = 1 // last-resort floor: nanoseconds
	}
	return p.mean, std, true
}

// phiAt is φ after elapsed nanoseconds of silence under N(mean, std²).
func phiAt(elapsed, mean, std float64) float64 {
	// P(next heartbeat later than elapsed).
	z := (elapsed - mean) / std
	pLater := 0.5 * math.Erfc(z/math.Sqrt2)
	if pLater <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(pLater)
}

// Phi returns the current suspicion level at time now: 0 means "just
// heard", +Inf means "statistically dead".
func (p *PhiAccrual) Phi(now time.Time) float64 {
	mean, std, ok := p.stats()
	if !ok {
		return 0
	}
	return phiAt(float64(now.Sub(p.last)), mean, std)
}

// firstGrace is the bounded grace of a peer that has sent fewer than
// two heartbeats.
func (p *PhiAccrual) firstGrace() time.Duration {
	if p.FirstTimeout <= 0 {
		return time.Second
	}
	return p.FirstTimeout
}

// Suspect implements Estimator: φ has reached Threshold, or, with no
// interval to compute it from yet, the silence exceeds the first grace.
func (p *PhiAccrual) Suspect(now time.Time) bool {
	mean, std, ok := p.stats()
	if !ok {
		return p.suspect(now, p.firstGrace())
	}
	return phiAt(float64(now.Sub(p.last)), mean, std) >= p.Threshold
}

// Deadline implements Estimator. φ crosses Threshold where the normal
// tail falls to 10^-Threshold, at mean + z·std; float rounding keeps
// that estimate from being exact, so the crossing is found with phiAt
// itself, which never falls as the silence grows: a gallop from the
// estimate, in steps doubling from one nanosecond, brackets it, and a
// bisection narrows the bracket to the last trusted nanosecond.
func (p *PhiAccrual) Deadline() time.Time {
	mean, std, ok := p.stats()
	if !ok {
		return p.deadline(p.firstGrace())
	}
	if p.Threshold <= 0 {
		return p.last // not a threshold: suspected from the second arrival on
	}
	suspectAfter := func(elapsed int64) bool {
		return phiAt(float64(elapsed), mean, std) >= p.Threshold
	}
	// Erfc underflows to 0 (φ = +Inf) before z = 39, whatever Threshold.
	z := math.Min(math.Sqrt2*math.Erfcinv(2*math.Pow(10, -p.Threshold)), 39)
	lo := int64(math.Min(mean+z*std, math.MaxInt64/2))
	hi := lo + 1
	for step := int64(1); suspectAfter(lo); step *= 2 {
		hi, lo = lo, lo-step
	}
	for step := int64(1); !suspectAfter(hi); step *= 2 {
		if hi > math.MaxInt64/4 {
			return time.Time{} // centuries away: never, as far as a Duration can tell
		}
		lo, hi = hi, hi+step
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; suspectAfter(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return p.deadline(time.Duration(lo))
}
