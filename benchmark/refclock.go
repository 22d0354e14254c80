package main

import (
	"crypto/sha256"
	"hash"
	"math/rand"
	"strconv"
	"syscall"
	"time"
)

// The box this benchmark is accepted on is a slice of a shared host
// whose speed changes by a third and stays changed for a minute at a
// time: a whole fifteen-second run can sit in a slow spell, with CPU
// time stretching as much as wall time, so no statistic taken inside
// one run of the program alone can tell a slow host from slow code, and
// two sets of ten runs of the same code differed by a quarter. Every
// processor-bound metric is therefore reported in reference seconds: the
// time measured, divided by how much slower than refNominal a fixed
// kernel ran next to it — between chunks of seeds (refPacer), between
// repetitions of the set-up (setupSeconds), and four times in every
// window of a live run's CPU (cpuSampler). The kernel is the
// benchmark's, built from the standard library only, so nothing a later
// change does to the repository moves it. Detection times are protocol
// time (timeouts and rounds), and counts are counts; neither is scaled.

// refNominal is the kernel's time on the reference box at full speed;
// it only fixes the unit, so that seeds per reference second read like
// seeds per second there.
const refNominal = 21500 * time.Microsecond

const (
	refProcs = 64
	refRuns  = 90   // per tick
	refSteps = 2000 // per run
)

type refMsg struct {
	from, to int32
	sent     int64
}

// refClock owns the kernel's state, kept between calls so that every
// call does the same work on a warm heap and allocates nothing.
type refClock struct {
	rng     *rand.Rand
	pending [refProcs][]refMsg
	hash    hash.Hash
	line    []byte
	sum     []byte
}

func newRefClock() *refClock {
	c := &refClock{rng: rand.New(rand.NewSource(1)), hash: sha256.New()}
	c.tick() // grows the queues and the line to their working size
	return c
}

// tick runs the kernel once and returns how long it took. The kernel is
// shaped like the program under test — seeded runs of a message-passing
// loop that picks a process, takes a random pending message, queues the
// replies, and renders the step as a line of text into a running
// SHA-256 — so that what slows one slows the other.
func (c *refClock) tick() time.Duration {
	t0 := time.Now()
	c.work()
	return time.Since(t0)
}

// cpuTick is tick on the calling thread's CPU clock, for a kernel that
// shares the processors with the program under test: waiting for a
// processor is not on that clock, a slow processor is. The caller has
// locked its goroutine to the thread.
func (c *refClock) cpuTick() time.Duration {
	t0 := threadCPU()
	c.work()
	return threadCPU() - t0
}

func (c *refClock) work() {
	c.rng.Seed(1)
	for run := 0; run < refRuns; run++ {
		c.run()
	}
}

// threadCPU is the calling thread's user+system CPU time so far.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD, Linux
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (c *refClock) run() {
	for p := range c.pending {
		c.pending[p] = append(c.pending[p][:0], refMsg{from: int32(p), to: int32(p)})
	}
	c.hash.Reset()
	for step := int64(0); step < refSteps; step++ {
		p := c.rng.Intn(refProcs)
		q := c.pending[p]
		if len(q) == 0 {
			continue
		}
		i := c.rng.Intn(len(q))
		m := q[i]
		q[i] = q[len(q)-1]
		c.pending[p] = q[:len(q)-1]
		b := append(c.line[:0], 'e')
		b = strconv.AppendInt(b, step, 10)
		b = append(b, " p="...)
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, " rcv=("...)
		b = strconv.AppendInt(b, int64(m.from), 10)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(m.to), 10)
		b = append(b, " @"...)
		b = strconv.AppendInt(b, m.sent, 10)
		b = append(b, ')')
		fan := 1
		if step%8 == 0 || len(q) == 1 {
			fan = 4
		}
		for k := 0; k < fan; k++ {
			to := c.rng.Intn(refProcs)
			c.pending[to] = append(c.pending[to], refMsg{from: int32(p), to: int32(to), sent: step})
			b = append(b, " snd=(>"...)
			b = strconv.AppendInt(b, int64(to), 10)
			b = append(b, " echo)"...)
		}
		b = append(b, '\n')
		c.hash.Write(b)
		c.line = b
	}
	c.sum = c.hash.Sum(c.sum[:0])
}

// refPacer times laps of the program under test with a kernel tick on
// either side of each.
type refPacer struct {
	clock *refClock
	laps  []float64 // seconds of work, ticks excluded
	ticks []float64 // seconds; ticks[i] precedes laps[i], ticks[i+1] follows it
	last  time.Time
}

func newRefPacer(laps int) *refPacer {
	return &refPacer{clock: newRefClock(), laps: make([]float64, 0, laps), ticks: make([]float64, 0, laps+1)}
}

// start takes the first tick; the first lap begins when it returns.
func (p *refPacer) start() {
	p.ticks = append(p.ticks, p.clock.tick().Seconds())
	p.last = time.Now()
}

// lap ends a lap, takes a tick, and begins the next lap.
func (p *refPacer) lap() {
	p.laps = append(p.laps, time.Since(p.last).Seconds())
	p.ticks = append(p.ticks, p.clock.tick().Seconds())
	p.last = time.Now()
}

// worked is the wall time of all laps, in seconds.
func (p *refPacer) worked() float64 {
	total := 0.0
	for _, l := range p.laps {
		total += l
	}
	return total
}

// refLap is the median, over groups of group consecutive laps, of a
// group's wall time in reference seconds: scaled by refNominal over the
// median of the ticks around and between its laps. The scaling takes
// out the host's slow spells, which outlast a run; the medians take out
// what hits a lap and misses its ticks, or a tick and not its laps.
func (p *refPacer) refLap(group int) float64 {
	var scaled []float64
	for g := 0; g+group <= len(p.laps); g += group {
		work := 0.0
		for _, l := range p.laps[g : g+group] {
			work += l
		}
		scaled = append(scaled, work*refNominal.Seconds()/median(p.ticks[g:g+group+1]))
	}
	return median(scaled)
}

// slowdown is the median tick over refNominal: how much slower than the
// reference box at full speed the host ran during this run.
func (p *refPacer) slowdown() float64 { return median(p.ticks) / refNominal.Seconds() }
