package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted:
// the smallest sample with at least q·n samples at or below it. It
// returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond is how many of n sorted samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// median returns the middle value (mean of the middle two for an even
// count); it sorts a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// section is the cost of one timed section.
type section struct {
	wall, cpu      float64 // seconds
	mallocs, bytes uint64
}

// measure times fn: wall clock, process CPU, and heap allocation
// counts. A collection runs first so garbage left by earlier phases is
// not swept on this section's clock.
func measure(fn func()) section {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	fn()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	runtime.ReadMemStats(&m1)
	return section{wall: wall, cpu: cpu, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
}

// Set-up is cheap next to a timed section, so one sample of it is
// mostly noise, and a young process runs it slowly: the mesh's takes
// twice as long for its first ten repetitions, while the heap is still
// being faulted in. setupSeconds repeats fn at least setupMinReps
// times and until setupMinTotal has passed, drops the earlier half of
// the samples as warm-up, and returns the lower quartile of the rest,
// in reference seconds: scaled by refNominal over the median tick of
// the reference kernel (refclock.go), which runs between repetitions
// every setupTickEvery. The lower quartile, not the median, because the
// samples have two modes — the mesh builds in 27 ms, or in 47 ms when a
// collection's mark phase lands in the repetition — and how many land
// in the slow one follows the heap the process has by then (a second
// pass of -aa has most of them there), not the set-up. undo, when not
// nil, releases what fn built, off the clock, after every repetition
// but the last, whose product the caller keeps.
const (
	setupMinReps   = 6
	setupMaxReps   = 40000
	setupMinTotal  = 2 * time.Second
	setupTickEvery = 100 * time.Millisecond
	// A repetition this long allocates enough to make the collector's
	// phase part of its time; sweeping between repetitions, off the
	// clock, takes that draw out.
	setupSweepOver = 5 * time.Millisecond
)

func setupSeconds(fn func() error, undo func()) (float64, error) {
	var samples, ticks []float64
	clock := newRefClock()
	begin := time.Now()
	var ticked time.Time
	for {
		if time.Since(ticked) >= setupTickEvery {
			ticks = append(ticks, clock.tick().Seconds())
			ticked = time.Now()
		}
		t0 := time.Now()
		err := fn()
		took := time.Since(t0)
		samples = append(samples, took.Seconds())
		if err != nil {
			return 0, err
		}
		n := len(samples)
		if n >= setupMaxReps || (n >= setupMinReps && time.Since(begin) >= setupMinTotal) {
			late := samples[n/2:]
			sort.Float64s(late)
			return quantile(late, 0.25) * refNominal.Seconds() / median(ticks), nil
		}
		if undo != nil {
			undo()
		}
		if took > setupSweepOver {
			runtime.GC()
		}
	}
}

// perOp times batches of iters calls of fn and returns the median
// batch's time per call, in nanoseconds.
func perOp(batches, iters int, fn func()) float64 {
	samples := make([]float64, batches)
	for b := range samples {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		samples[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(samples)
}

// lifetime is when one node of a live run is alive, as offsets from the
// run's start; a survivor's to lies beyond the end of the run.
type lifetime struct{ from, to time.Duration }

const survivor = time.Duration(1<<63 - 1)

// nodeSeconds is Σ node lifetimes clipped to the window [a, b].
func nodeSeconds(lives []lifetime, a, b time.Duration) float64 {
	total := 0.0
	for _, l := range lives {
		if from, to := max(l.from, a), min(l.to, b); to > from {
			total += (to - from).Seconds()
		}
	}
	return total
}

// cpuWindows is how many equal windows a live run's CPU is read over.
// The median window stands for the run: the reference box's slow
// spells take some of the fifteen, not half.
const cpuWindows = 15

// cpuSampler reads the process CPU clock at the end of every window.
// cpuTicks times a window, and once before the first, it also times
// the reference kernel (refclock.go) on its own thread's CPU clock, so
// that each window's CPU can be put in reference seconds.
type cpuSampler struct {
	start      time.Time
	at         []time.Duration // window ends, as offsets from start
	cpu        []float64       // CPU clock at start, then at each window end
	ticks      []float64       // kernel CPU seconds, cpuTicks to a window
	stop, done chan struct{}
}

// cpuTicks is how often in a window the kernel runs. A thread of the
// reference box runs a third slower while the other processor is busy,
// so one tick says little about a window; with four, the spread of the
// metric over ten runs was 6 % where the CPU clock alone spread 8–27 %.
// They cost a twelfth of one processor.
const cpuTicks = 4

func startCPUSampler(window time.Duration) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		clock := newRefClock()
		s.ticks = append(s.ticks, clock.cpuTick().Seconds())
		s.start, s.cpu = time.Now(), []float64{cpuSeconds()}
		close(ready)
		ticker := time.NewTicker(window / cpuTicks)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if len(s.ticks)%cpuTicks == 0 {
					s.at = append(s.at, time.Since(s.start))
					s.cpu = append(s.cpu, cpuSeconds())
				}
				s.ticks = append(s.ticks, clock.cpuTick().Seconds())
			case <-s.stop:
				return
			}
		}
	}()
	<-ready
	return s
}

// perNodeSecond stops the sampler and returns the median, over the
// completed windows, of CPU seconds per node-second: as the clock read
// them, and in reference seconds. A window's CPU is less the kernel's
// own; its scale is refNominal over the mean of the ticks in the window
// and at its two ends.
func (s *cpuSampler) perNodeSecond(lives []lifetime) (raw, ref float64) {
	close(s.stop)
	<-s.done
	var raws, refs []float64
	from := time.Duration(0)
	for i, to := range s.at {
		ticks := s.ticks[i*cpuTicks : (i+1)*cpuTicks+1]
		own, sum := 0.0, 0.0
		for j, t := range ticks {
			sum += t
			// The first tick of all ran before the start, and the last
			// of these after this window's end.
			if j < cpuTicks && i+j > 0 {
				own += t
			}
		}
		r := (s.cpu[i+1] - s.cpu[i] - own) / nodeSeconds(lives, from, to)
		raws = append(raws, r)
		refs = append(refs, r*refNominal.Seconds()/(sum/float64(len(ticks))))
		from = to
	}
	return median(raws), median(refs)
}
