package sim

import (
	"math/rand"
	randv2 "math/rand/v2"

	"realisticfd/internal/model"
)

// RunContext is a reusable allocation context for Execute: the arenas,
// queues, index maps and the Trace itself are recycled run over run
// instead of being reallocated, which is what lets a streaming sweep
// (internal/harness Reduce/Stream) hold memory flat across a million
// seeds. So are the processes, for an automaton that is a Respawner:
// each gets its slot's process of the last run back, with the slab
// chunks its payloads were carved from.
//
// The contract is strict single ownership in time: the *Trace returned
// by (*RunContext).Execute — and every Message, EventRecord, payload
// and index slice reachable from it — is valid only until the next
// Execute call on the same context. Callers that need to retain a run
// must either use the package-level Execute (a fresh context per run)
// or extract what they keep (Trace.Summary, Trace.Digest) before
// reusing the context. A RunContext is not safe for concurrent use;
// parallel sweeps give each worker its own.
type RunContext struct {
	// Per-run engine state, sized to N+1 and reset every run; procs
	// keeps the last run's processes for Respawn.
	procs   []Process
	pending []msgQueue
	lastEv  []int
	// dropped[p] collects messages to p purged from the pending queue
	// at their first dropped verdict (lossy links), in ID order, so
	// finish can reconstruct the exact Undelivered accounting a
	// purge-free engine would have produced.
	dropped [][]*Message
	// faults is the link-fault plane of the runs that have faults.
	faults faultPlane

	// Per-process FD output cache for Steady oracles: fdOut[p] is valid
	// through time fdUntil[p]. Horizons are dropped to -1 whenever the
	// pattern gains a crash (the Steady guarantee is conditioned on the
	// pattern not changing).
	fdOut   []model.ProcessSet
	fdUntil []model.Time

	// Arenas for the messages, each event's Sends and each event's
	// protocol Events: chunks are retained across runs and re-carved
	// from the top.
	msgs   arena[Message]
	sends  arena[*Message]
	events arena[ProtocolEvent]

	// The trace is recycled in place.
	trace Trace

	// The run handle and its generator are recycled too: each run
	// seeds src and rebuilds rng over it (startRNG).
	run Run
	rng rand.Rand
	src pcgSource
}

// NewRunContext returns an empty reusable run context.
func NewRunContext() *RunContext { return &RunContext{} }

// pcgSource is every run's generator source: math/rand/v2's PCG, whose
// state is two words, behind math/rand's Source64, so a Policy still
// draws through a *math/rand.Rand. Seeding it is O(1); seeding a
// math/rand source rewrites 607 words.
type pcgSource struct{ randv2.PCG }

// Seed sets the high state word to seed and the low one to seed times
// 2⁶⁴/φ, an odd constant and so a bijection: any two seeds differ in
// both words, where a fixed low word would be shared by every seed.
func (s *pcgSource) Seed(seed int64) {
	s.PCG.Seed(uint64(seed), uint64(seed)*0x9e3779b97f4a7c15)
}

// Int63 returns the top 63 bits of the next Uint64.
func (s *pcgSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// startRNG seeds the context's source and returns its generator. The
// Rand is rebuilt, not re-seeded, which also empties the buffer its
// Read keeps, so a run draws the same on a fresh or a reused context.
func (rc *RunContext) startRNG(seed int64) *rand.Rand {
	rc.src.Seed(seed)
	rc.rng = *rand.New(&rc.src)
	return &rc.rng
}

// grow returns s extended to length n, reusing its backing array when
// the capacity allows.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset prepares the context for a run of size n under the given
// pattern, recycling every arena and index.
func (rc *RunContext) reset(cfg Config, pattern *model.FailurePattern) *Trace {
	n := cfg.N
	rc.procs = grow(rc.procs, n+1)
	rc.pending = grow(rc.pending, n+1)
	rc.lastEv = grow(rc.lastEv, n+1)
	rc.dropped = grow(rc.dropped, n+1)
	rc.fdOut = grow(rc.fdOut, n+1)
	rc.fdUntil = grow(rc.fdUntil, n+1)
	for p := 0; p <= n; p++ {
		q := &rc.pending[p]
		q.buf = q.buf[:0]
		q.head = 0
		rc.lastEv[p] = -1
		rc.dropped[p] = rc.dropped[p][:0]
		rc.fdUntil[p] = -1
	}
	rc.msgs.rewind()
	rc.sends.rewind()
	rc.events.rewind()

	// Seed the schedule's capacity modestly on a fresh context: StopWhen
	// runs often end orders of magnitude before the horizon, so sizing
	// to the horizon would waste the whole block; growth beyond this is
	// amortized by append's doubling, and a reused context keeps its
	// high-water capacity.
	eventCap := int(cfg.Horizon)
	if eventCap > 512 {
		eventCap = 512
	}
	tr := &rc.trace
	tr.N = n
	if tr.Events == nil {
		tr.Events = make([]EventRecord, 0, eventCap)
	} else {
		tr.Events = tr.Events[:0]
	}
	tr.Pattern = pattern
	tr.Undelivered = tr.Undelivered[:0]
	tr.Stopped = 0
	// order-free: each entry is truncated in place; none reads another.
	for inst, d := range tr.decByInst {
		tr.decByInst[inst] = d[:0]
	}
	// order-free: as above.
	for kind, ev := range tr.evByKind {
		tr.evByKind[kind] = ev[:0]
	}
	clear(tr.decided)
	tr.decidedAny = model.EmptySet()
	tr.alive = model.EmptySet()
	tr.aliveValid = false
	return tr
}

// arena carves slices of T out of chunks that it keeps across runs.
// Chunk sizes start at first and grow fourfold up to limit, so short
// runs on a fresh context stay cheap; a request larger than the next
// chunk gets a chunk of its own size.
type arena[T any] struct {
	chunks  [][]T
	ci, off int
	size    int
}

// rewind makes every chunk available again, from the first.
func (a *arena[T]) rewind() { a.ci, a.off = 0, 0 }

// carve returns a zero-length, capacity-n slice.
func (a *arena[T]) carve(n, first, limit int) []T {
	for {
		if a.ci < len(a.chunks) {
			c := a.chunks[a.ci]
			if a.off+n <= len(c) {
				s := c[a.off : a.off : a.off+n]
				a.off += n
				return s
			}
			a.ci++
			a.off = 0
			continue
		}
		if a.size == 0 {
			a.size = first
		} else if a.size < limit {
			a.size *= 4
		}
		a.size = max(a.size, n)
		a.chunks = append(a.chunks, make([]T, a.size))
	}
}

// allocMsgs carves a block of n Messages from the context's arena.
// The block is not cleared: on a reused context it holds the previous
// run's messages.
func (rc *RunContext) allocMsgs(n int) []Message { return rc.msgs.carve(n, 32, 1024)[:n] }

// allocSends carves a length-n pointer slice for one event's Sends.
func (rc *RunContext) allocSends(n int) []*Message { return rc.sends.carve(n, 64, 2048)[:n] }

// copyEvents copies one step's protocol events into the context's
// arena, so that a process may reuse its Events buffer (see Actions).
func (rc *RunContext) copyEvents(evs []ProtocolEvent) []ProtocolEvent {
	return append(rc.events.carve(len(evs), 16, 1024), evs...)
}
