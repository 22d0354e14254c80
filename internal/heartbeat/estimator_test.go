package heartbeat

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// base is an arbitrary virtual-time origin.
var base = time.Unix(1000, 0)

func at(d time.Duration) time.Time { return base.Add(d) }

func TestFixedTimeout(t *testing.T) {
	t.Parallel()
	f := &FixedTimeout{Timeout: 100 * time.Millisecond}
	// Before any heartbeat: initial grace, no suspicion.
	if f.Suspect(at(time.Hour)) {
		t.Fatal("suspected before first heartbeat")
	}
	f.Observe(at(0))
	if f.Suspect(at(100 * time.Millisecond)) {
		t.Fatal("suspected exactly at the timeout boundary")
	}
	if !f.Suspect(at(101 * time.Millisecond)) {
		t.Fatal("not suspected past the timeout")
	}
	// A new heartbeat clears the suspicion.
	f.Observe(at(150 * time.Millisecond))
	if f.Suspect(at(200 * time.Millisecond)) {
		t.Fatal("suspected 50ms after a fresh heartbeat")
	}
	// Stale (out-of-order) arrivals don't move the clock backwards.
	f.Observe(at(120 * time.Millisecond))
	if f.Suspect(at(200 * time.Millisecond)) {
		t.Fatal("stale arrival rewound the estimator")
	}
}

func TestChenAdaptsToInterval(t *testing.T) {
	t.Parallel()
	c := &Chen{Window: 4, Alpha: 20 * time.Millisecond}
	// Regular 100ms heartbeats.
	for i := 0; i <= 5; i++ {
		c.Observe(at(time.Duration(i) * 100 * time.Millisecond))
	}
	last := at(500 * time.Millisecond)
	// Expected next ≈ last+100ms; margin 20ms ⇒ deadline ≈ last+120ms.
	if c.Suspect(last.Add(110 * time.Millisecond)) {
		t.Fatal("suspected before the adaptive deadline")
	}
	if !c.Suspect(last.Add(130 * time.Millisecond)) {
		t.Fatal("not suspected after the adaptive deadline")
	}
}

func TestChenAdaptsToSlowerInterval(t *testing.T) {
	t.Parallel()
	// The same estimator fed 300ms heartbeats must not suspect at
	// +150ms — a fixed 120ms timeout would.
	c := &Chen{Window: 4, Alpha: 20 * time.Millisecond}
	for i := 0; i <= 5; i++ {
		c.Observe(at(time.Duration(i) * 300 * time.Millisecond))
	}
	last := at(1500 * time.Millisecond)
	if c.Suspect(last.Add(150 * time.Millisecond)) {
		t.Fatal("Chen ignored the observed 300ms cadence")
	}
	if !c.Suspect(last.Add(330 * time.Millisecond)) {
		t.Fatal("Chen missed a genuinely late heartbeat")
	}
}

func TestChenSingleArrival(t *testing.T) {
	t.Parallel()
	c := &Chen{Window: 4, Alpha: 50 * time.Millisecond}
	c.Observe(at(0))
	if c.Suspect(at(40 * time.Millisecond)) {
		t.Fatal("suspected within margin after a single arrival")
	}
	if !c.Suspect(at(60 * time.Millisecond)) {
		t.Fatal("not suspected past margin after a single arrival")
	}
}

func TestPhiGrowsWithSilence(t *testing.T) {
	t.Parallel()
	p := &PhiAccrual{Window: 16, Threshold: 8, MinStdDev: 5 * time.Millisecond}
	for i := 0; i <= 10; i++ {
		p.Observe(at(time.Duration(i) * 100 * time.Millisecond))
	}
	last := at(time.Second)
	phiSoon := p.Phi(last.Add(50 * time.Millisecond))
	phiLate := p.Phi(last.Add(200 * time.Millisecond))
	phiVeryLate := p.Phi(last.Add(500 * time.Millisecond))
	if !(phiSoon < phiLate && phiLate < phiVeryLate) {
		t.Fatalf("φ not monotone: %v, %v, %v", phiSoon, phiLate, phiVeryLate)
	}
	if p.Suspect(last.Add(50 * time.Millisecond)) {
		t.Fatal("suspected at φ(50ms) with threshold 8")
	}
	if !p.Suspect(last.Add(time.Second)) {
		t.Fatal("not suspected after 10 missed intervals")
	}
}

func TestPhiToleratesJitterByWideningStd(t *testing.T) {
	t.Parallel()
	// Irregular arrivals: 60..140ms alternating. The learned variance
	// must keep φ low at 150ms of silence.
	p := &PhiAccrual{Window: 16, Threshold: 8, MinStdDev: time.Millisecond}
	ts := time.Duration(0)
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			ts += 60 * time.Millisecond
		} else {
			ts += 140 * time.Millisecond
		}
		p.Observe(at(ts))
	}
	if p.Suspect(at(ts + 150*time.Millisecond)) {
		t.Fatal("φ-accrual suspected within learned jitter band")
	}
}

func TestPhiBeforeAnyArrival(t *testing.T) {
	t.Parallel()
	p := &PhiAccrual{Window: 4, Threshold: 8}
	if got := p.Phi(at(time.Hour)); got != 0 {
		t.Fatalf("Phi with no arrivals = %v, want 0", got)
	}
	if p.Suspect(at(time.Hour)) {
		t.Fatal("suspected before first heartbeat")
	}
}

func TestPhiInfinityOnExtremeSilence(t *testing.T) {
	t.Parallel()
	p := &PhiAccrual{Window: 8, Threshold: 8, MinStdDev: time.Millisecond}
	for i := 0; i <= 8; i++ {
		p.Observe(at(time.Duration(i) * 10 * time.Millisecond))
	}
	phi := p.Phi(at(time.Hour))
	if !math.IsInf(phi, 1) && phi < 100 {
		t.Fatalf("φ after an hour of silence = %v, want very large", phi)
	}
}

func TestEstimatorNames(t *testing.T) {
	t.Parallel()
	ests := []Estimator{
		&FixedTimeout{Timeout: time.Second},
		&Chen{Window: 8, Alpha: time.Millisecond},
		&PhiAccrual{Window: 8, Threshold: 8},
	}
	seen := map[string]bool{}
	for _, e := range ests {
		n := e.Name()
		if n == "" || seen[n] {
			t.Fatalf("estimator name %q empty or duplicated", n)
		}
		seen[n] = true
	}
}

// TestPhiMemoMatchesRecompute: the window statistics Observe keeps give
// φ bit for bit, and the deadline exactly, as summing the window afresh
// at every call does — through window wraps, stale arrivals and floors.
func TestPhiMemoMatchesRecompute(t *testing.T) {
	// rawStats is the window sum every φ call made before the memo, floors
	// left out.
	rawStats := func(p *PhiAccrual) (mean, std float64, ok bool) {
		n := p.next
		if p.filled {
			n = len(p.intervals)
		}
		if n == 0 {
			return 0, 0, false
		}
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(p.intervals[i])
		}
		mean = sum / float64(n)
		var varSum float64
		for i := 0; i < n; i++ {
			d := float64(p.intervals[i]) - mean
			varSum += d * d
		}
		return mean, math.Sqrt(varSum / float64(n)), true
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		p := &PhiAccrual{
			Window:    1 + rng.Intn(12),
			Threshold: 0.5 + 12*rng.Float64(),
			MinStdDev: time.Duration(rng.Intn(3)) * time.Duration(rng.Intn(40)) * time.Millisecond,
		}
		now := base
		for k := 0; k < 40; k++ { // more arrivals than the window holds
			switch rng.Intn(6) {
			case 0: // stale or duplicate
				now = now.Add(-time.Duration(rng.Intn(2)) * time.Millisecond)
			case 1: // a steady beat: a zero deviation
				now = now.Add(50 * time.Millisecond)
			default:
				now = now.Add(time.Duration(1 + rng.Int63n(int64(200*time.Millisecond))))
			}
			p.Observe(now)
			mean, rawStd, ok := rawStats(p)
			ref := *p
			ref.mean, ref.std = mean, rawStd
			if got, want := p.Deadline(), ref.Deadline(); !got.Equal(want) {
				t.Fatalf("trial %d, arrival %d: Deadline %v, recomputed %v", trial, k, got.Sub(base), want.Sub(base))
			}
			std := math.Max(rawStd, float64(p.MinStdDev))
			if std == 0 {
				std = 1
			}
			for _, after := range []time.Duration{0, 10 * time.Millisecond, 60 * time.Millisecond, 400 * time.Millisecond, time.Minute} {
				q := p.last.Add(after)
				want := 0.0
				if ok {
					want = phiAt(float64(after), mean, std)
				}
				if got := p.Phi(q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d, arrival %d: Phi(last+%v) = %v, recomputed %v", trial, k, after, got, want)
				}
			}
		}
	}
}

// TestPhiAtMonotone: φ never falls as the silence grows, nanosecond by
// nanosecond — what lets Deadline search for its crossing. It scans
// both sides of each |x| at which math.Erfc switches approximations or
// underflows, over means and deviations from a nanosecond to minutes.
func TestPhiAtMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	edges := []float64{0, 0.84375, 1.25, 1 / 0.35, 6, 26.5, 27.3, 28}
	for trial := 0; trial < 100; trial++ {
		mean := float64(rng.Int63n(int64(time.Minute)))
		std := math.Exp(rng.Float64() * math.Log(float64(time.Minute)))
		for _, x := range edges {
			for _, sign := range []float64{-1, 1} {
				centre := int64(mean + sign*x*math.Sqrt2*std)
				prev := phiAt(float64(centre-1000), mean, std)
				for e := centre - 999; e <= centre+1000; e++ {
					phi := phiAt(float64(e), mean, std)
					if phi < prev {
						t.Fatalf("mean %v, std %v: φ falls from %v to %v at %d ns", mean, std, prev, phi, e)
					}
					prev = phi
				}
			}
		}
	}
}

// checkDeadline holds est to the Deadline contract as it stands now:
// the verdict is trust at the deadline and suspect a nanosecond after,
// and a zero deadline means silence never turns it.
func checkDeadline(t *testing.T, est Estimator, arrivals int) {
	t.Helper()
	d := est.Deadline()
	if d.IsZero() {
		if est.Suspect(at(1000 * time.Hour)) {
			t.Fatalf("%s after %d arrivals: no deadline, yet suspected after 1000h of silence", est.Name(), arrivals)
		}
		return
	}
	if est.Suspect(d) {
		t.Fatalf("%s after %d arrivals: already suspected at its deadline %v", est.Name(), arrivals, d.Sub(base))
	}
	if !est.Suspect(d.Add(time.Nanosecond)) {
		t.Fatalf("%s after %d arrivals: still trusted 1ns after its deadline %v", est.Name(), arrivals, d.Sub(base))
	}
}

// deadlineCase is one estimator and one arrival sequence, decoded from
// bytes so that the property test and the fuzz target share it.
type deadlineCase struct {
	est    Estimator
	deltas []time.Duration // arrival i is at the sum of the first i+1; ≤ 0 is a duplicate or stale
}

// decodeDeadlineCase maps arbitrary bytes to a case. Durations stay
// between nanoseconds and hours: what a Duration cannot hold is not
// what the estimators are for.
func decodeDeadlineCase(kind uint8, param uint32, window uint8, epoch bool, data []byte) deadlineCase {
	var c deadlineCase
	scale := time.Duration(1) << (param >> 28) // 1 ns … 32 µs per unit
	margin := time.Duration(param&0xfffffff) * scale
	switch kind % 3 {
	case 0:
		c.est = &FixedTimeout{Timeout: margin}
	case 1:
		c.est = &Chen{Window: int(window % 40), Alpha: margin}
	default:
		c.est = &PhiAccrual{
			Window:       int(window % 80),
			Threshold:    0.05 + float64(param%4096)/128, // 0.05 … 32
			MinStdDev:    time.Duration(param>>12&0xff) * time.Duration(window) * time.Microsecond,
			FirstTimeout: margin,
		}
	}
	if epoch {
		c.est.SetEpoch(base)
	}
	for ; len(data) >= 4; data = data[4:] {
		raw := int32(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24)
		c.deltas = append(c.deltas, time.Duration(raw)*61) // ± 131 s, odd nanoseconds
	}
	return c
}

// run checks the contract before any arrival and after every one.
func (c deadlineCase) run(t *testing.T) {
	t.Helper()
	checkDeadline(t, c.est, 0)
	var now time.Duration
	for i, d := range c.deltas {
		now += d
		c.est.Observe(at(now))
		checkDeadline(t, c.est, i+1)
	}
}

// TestEstimatorDeadline is the Deadline contract over named corners and
// a few thousand random arrival sequences.
func TestEstimatorDeadline(t *testing.T) {
	le := func(ds ...time.Duration) []byte {
		var out []byte
		for _, d := range ds {
			raw := uint32(int32(d / 61))
			out = append(out, byte(raw), byte(raw>>8), byte(raw>>16), byte(raw>>24))
		}
		return out
	}
	ms := time.Millisecond
	regular := le(50*ms, 50*ms, 50*ms, 50*ms, 50*ms, 50*ms)
	corners := []struct {
		name   string
		kind   uint8
		param  uint32
		window uint8
		epoch  bool
		data   []byte
	}{
		{"fixed, nothing heard, no epoch", 0, 600_000_000, 0, false, nil},
		{"fixed, nothing heard, epoch", 0, 600_000_000, 0, true, nil},
		{"fixed, duplicate and stale arrivals", 0, 600_000_000, 0, true, le(50*ms, 0, -20*ms, 50*ms)},
		{"chen, nothing heard, epoch", 1, 200_000_000, 16, true, nil},
		{"chen, one sample", 1, 200_000_000, 16, false, le(50 * ms)},
		{"chen, a burst pulls the deadline in", 1, 200_000_000, 3, true, le(100*ms, 100*ms, 100*ms, 61)},
		{"chen, window wraps", 1, 200_000_000, 2, true, regular},
		{"phi, nothing heard, no epoch", 2, 8 * 128, 64, false, nil},
		{"phi, nothing heard, epoch", 2, 8 * 128, 64, true, nil},
		{"phi, one arrival has no interval", 2, 8 * 128, 64, true, le(50 * ms)},
		{"phi, regular stream at the MinStdDev floor", 2, 8*128 | 50<<12, 250, true, regular},
		{"phi, regular stream with no floor", 2, 8 * 128, 0, true, regular},
		{"phi, jitter and a stale arrival", 2, 12 * 128, 8, true, le(40*ms, 70*ms, -5*ms, 45*ms, 55*ms)},
		// Erfcinv(2·10^-Φ) saturates for Φ ≥ 17: the estimate sits at the
		// z = 39 cap, about 30 standard deviations past the crossing.
		{"phi, Φ = 20 starts the search far past the crossing", 2, 20*128 | 50<<12, 250, true, regular},
	}
	for _, c := range corners {
		t.Run(c.name, func(t *testing.T) {
			decodeDeadlineCase(c.kind, c.param, c.window, c.epoch, c.data).run(t)
		})
	}
	// The contract holds for an estimator that never suspects; this one
	// must. φ has no interval after one arrival and falls back to its
	// grace, as Chen falls back to its margin: a peer that goes silent
	// after its first heartbeat is suspected.
	t.Run("phi, silent after one arrival", func(t *testing.T) {
		p := &PhiAccrual{Threshold: 8, FirstTimeout: 600 * ms}
		p.SetEpoch(base)
		p.Observe(at(50 * ms))
		if got, want := p.Deadline(), at(650*ms); !got.Equal(want) {
			t.Fatalf("deadline %v, want %v: the grace after the one arrival", got.Sub(base), want.Sub(base))
		}
		checkDeadline(t, p, 1)
	})

	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 4*rng.Intn(80))
		rng.Read(data)
		if rng.Intn(2) == 0 {
			// Heartbeat-like: positive intervals around a period.
			for j := 0; j+4 <= len(data); j += 4 {
				copy(data[j:], le(time.Duration(rng.Intn(100)+1)*ms))
			}
		}
		decodeDeadlineCase(uint8(i), rng.Uint32(), uint8(rng.Intn(256)), rng.Intn(2) == 0, data).run(t)
	}
}

// FuzzEstimatorDeadline searches for an estimator state whose Deadline
// and Suspect disagree.
func FuzzEstimatorDeadline(f *testing.F) {
	f.Add(uint8(0), uint32(600_000_000), uint8(0), true, []byte{})
	f.Add(uint8(0), uint32(600_000_000), uint8(0), false, []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(1), uint32(200_000_000), uint8(16), false, []byte{0, 0, 0, 1})
	f.Add(uint8(1), uint32(200_000_000), uint8(3), true, []byte{0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0})
	f.Add(uint8(2), uint32(8*128|50<<12), uint8(250), true, []byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1})
	f.Add(uint8(2), uint32(8*128), uint8(64), false, []byte{0, 0, 0, 1})
	f.Add(uint8(2), uint32(1), uint8(2), true, []byte{1, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, kind uint8, param uint32, window uint8, epoch bool, data []byte) {
		if len(data) > 4*256 {
			data = data[:4*256]
		}
		decodeDeadlineCase(kind, param, window, epoch, data).run(t)
	})
}
