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

// EpochSetter is implemented by estimators that bound the initial
// grace period: SetEpoch marks when monitoring began, after which a
// peer that never sends a single heartbeat (dead on arrival) is
// eventually suspected. The Gossiper calls it automatically.
type EpochSetter interface {
	SetEpoch(start time.Time)
}

// FixedTimeout suspects a peer when no heartbeat arrived for Timeout.
// The simplest — and with a safe margin, the classic group-membership
// — detector.
type FixedTimeout struct {
	// Timeout is the silence threshold.
	Timeout time.Duration

	epoch   time.Time
	last    time.Time
	hasLast bool
}

var (
	_ Estimator   = (*FixedTimeout)(nil)
	_ EpochSetter = (*FixedTimeout)(nil)
)

// Name implements Estimator.
func (f *FixedTimeout) Name() string { return fmt.Sprintf("fixed(%v)", f.Timeout) }

// SetEpoch implements EpochSetter.
func (f *FixedTimeout) SetEpoch(start time.Time) { f.epoch = start }

// Observe implements Estimator.
func (f *FixedTimeout) Observe(arrival time.Time) {
	if !f.hasLast || arrival.After(f.last) {
		f.last = arrival
		f.hasLast = true
	}
}

// Suspect implements Estimator.
func (f *FixedTimeout) Suspect(now time.Time) bool {
	if !f.hasLast {
		// Nothing heard yet: unlimited grace without an epoch,
		// bounded grace with one (dead-on-arrival peers).
		return !f.epoch.IsZero() && now.Sub(f.epoch) > f.Timeout
	}
	return now.Sub(f.last) > f.Timeout
}

// LastArrival implements Estimator.
func (f *FixedTimeout) LastArrival() time.Time { return f.last }

// Deadline implements Estimator.
func (f *FixedTimeout) Deadline() time.Time {
	if !f.hasLast {
		if f.epoch.IsZero() {
			return time.Time{}
		}
		return f.epoch.Add(f.Timeout)
	}
	return f.last.Add(f.Timeout)
}

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

	epoch     time.Time
	last      time.Time
	hasLast   bool
	intervals []time.Duration
	next      int
	filled    bool
}

var (
	_ Estimator   = (*Chen)(nil)
	_ EpochSetter = (*Chen)(nil)
)

// Name implements Estimator.
func (c *Chen) Name() string { return fmt.Sprintf("chen(w=%d,α=%v)", c.Window, c.Alpha) }

// SetEpoch implements EpochSetter.
func (c *Chen) SetEpoch(start time.Time) { c.epoch = start }

// Observe implements Estimator.
func (c *Chen) Observe(arrival time.Time) {
	if c.intervals == nil {
		w := c.Window
		if w <= 0 {
			w = 16
		}
		c.intervals = make([]time.Duration, w)
	}
	if c.hasLast {
		if !arrival.After(c.last) {
			return // stale or duplicated arrival
		}
		c.intervals[c.next] = arrival.Sub(c.last)
		c.next++
		if c.next == len(c.intervals) {
			c.next = 0
			c.filled = true
		}
	}
	c.last = arrival
	c.hasLast = true
}

// mean returns the average observed inter-arrival, or 0 with no
// samples yet.
func (c *Chen) mean() time.Duration {
	n := c.next
	if c.filled {
		n = len(c.intervals)
	}
	if n == 0 {
		return 0
	}
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += c.intervals[i]
	}
	return sum / time.Duration(n)
}

// Suspect implements Estimator.
func (c *Chen) Suspect(now time.Time) bool {
	if !c.hasLast {
		// Bounded initial grace once an epoch is known.
		return !c.epoch.IsZero() && now.Sub(c.epoch) > c.Alpha
	}
	mean := c.mean()
	if mean == 0 {
		// One arrival, no interval yet: fall back to the margin only.
		return now.Sub(c.last) > c.Alpha
	}
	deadline := c.last.Add(mean + c.Alpha)
	return now.After(deadline)
}

// LastArrival implements Estimator.
func (c *Chen) LastArrival() time.Time { return c.last }

// Deadline implements Estimator.
func (c *Chen) Deadline() time.Time {
	if !c.hasLast {
		if c.epoch.IsZero() {
			return time.Time{}
		}
		return c.epoch.Add(c.Alpha)
	}
	return c.last.Add(c.mean() + c.Alpha)
}

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

	epoch     time.Time
	last      time.Time
	hasLast   bool
	intervals []time.Duration
	next      int
	filled    bool
	// mean and std are the window's, in nanoseconds, std not floored:
	// computed once per interval taken, read by every Phi, Suspect and
	// Deadline until the next.
	mean, std float64
}

var (
	_ Estimator   = (*PhiAccrual)(nil)
	_ EpochSetter = (*PhiAccrual)(nil)
)

// Name implements Estimator.
func (p *PhiAccrual) Name() string {
	return fmt.Sprintf("phi(w=%d,Φ=%.1f)", p.Window, p.Threshold)
}

// SetEpoch implements EpochSetter.
func (p *PhiAccrual) SetEpoch(start time.Time) { p.epoch = start }

// Observe implements Estimator.
func (p *PhiAccrual) Observe(arrival time.Time) {
	if p.intervals == nil {
		w := p.Window
		if w <= 0 {
			w = 64
		}
		p.intervals = make([]time.Duration, w)
	}
	if p.hasLast {
		if !arrival.After(p.last) {
			return
		}
		p.intervals[p.next] = arrival.Sub(p.last)
		p.next++
		if p.next == len(p.intervals) {
			p.next = 0
			p.filled = true
		}
		window := p.intervals[:p.next]
		if p.filled {
			window = p.intervals
		}
		p.mean, p.std = windowStats(window)
	}
	p.last = arrival
	p.hasLast = true
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
	if p.next == 0 && !p.filled {
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
	if !p.hasLast {
		return 0
	}
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

// Suspect implements Estimator.
func (p *PhiAccrual) Suspect(now time.Time) bool {
	if !p.hasLast {
		return !p.epoch.IsZero() && now.Sub(p.epoch) > p.firstGrace()
	}
	mean, std, ok := p.stats()
	if !ok {
		// One arrival, no interval yet: fall back to the grace, as Chen
		// falls back to its margin.
		return now.Sub(p.last) > p.firstGrace()
	}
	return phiAt(float64(now.Sub(p.last)), mean, std) >= p.Threshold
}

// LastArrival implements Estimator.
func (p *PhiAccrual) LastArrival() time.Time { return p.last }

// phiDeadlineSlack is how early φ's deadline may be: the crossing is
// bracketed, not solved to the nanosecond.
const phiDeadlineSlack = time.Microsecond

// Deadline implements Estimator. φ crosses Threshold where the normal
// tail falls to 10^-Threshold, at mean + z·std; float rounding keeps
// that from being exact, so the crossing is bracketed with φ itself
// and the bracket's lower end returned: Suspect is false there and
// true phiDeadlineSlack later.
func (p *PhiAccrual) Deadline() time.Time {
	if !p.hasLast {
		if p.epoch.IsZero() {
			return time.Time{}
		}
		return p.epoch.Add(p.firstGrace())
	}
	mean, std, ok := p.stats()
	if !ok {
		return p.last.Add(p.firstGrace()) // one arrival, no interval: the grace
	}
	if p.Threshold <= 0 {
		return p.last // not a threshold: suspected from the second arrival on
	}
	suspectAfter := func(elapsed int64) bool {
		return phiAt(float64(elapsed), mean, std) >= p.Threshold
	}
	// Erfc underflows to 0 (φ = +Inf) before z = 39, whatever Threshold.
	z := math.Min(math.Sqrt2*math.Erfcinv(2*math.Pow(10, -p.Threshold)), 39)
	lo := int64(math.Min(mean+z*std, math.MaxInt64/2)) - int64(phiDeadlineSlack)/2
	hi := lo + int64(phiDeadlineSlack)
	for step := int64(phiDeadlineSlack); suspectAfter(lo); step *= 2 {
		hi, lo = lo, lo-step
	}
	for step := int64(phiDeadlineSlack); !suspectAfter(hi); step *= 2 {
		if hi > math.MaxInt64/4 {
			return time.Time{} // centuries away: never, as far as a Duration can tell
		}
		lo, hi = hi, hi+step
	}
	for hi-lo > int64(phiDeadlineSlack) {
		if mid := lo + (hi-lo)/2; suspectAfter(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return p.last.Add(time.Duration(lo))
}
