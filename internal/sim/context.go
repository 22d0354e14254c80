package sim

import (
	"math/rand"

	"realisticfd/internal/model"
)

// RunContext is a reusable allocation context for Execute: the arenas,
// queues, index maps and the Trace itself are recycled run over run
// instead of being reallocated, which is what lets a streaming sweep
// (internal/harness Reduce/Stream) hold memory flat across a million
// seeds.
//
// The contract is strict single ownership in time: the *Trace returned
// by (*RunContext).Execute — and every Message, EventRecord and index
// slice reachable from it — is valid only until the next Execute call
// on the same context. Callers that need to retain a run must either
// use the package-level Execute (a fresh context per run) or extract
// what they keep (Trace.Summary, Trace.Digest) before reusing the
// context. A RunContext is not safe for concurrent use; parallel
// sweeps give each worker its own.
type RunContext struct {
	// Per-run engine state, sized to N+1 and reset every run.
	procs   []Process
	pending []msgQueue
	lastEv  []int
	// dropped[p] collects messages to p purged from the pending queue
	// at their first dropped verdict (lossy links), in ID order, so
	// finish can reconstruct the exact Undelivered accounting a
	// purge-free engine would have produced.
	dropped [][]*Message
	// dead is the per-step scratch for DropSifter results.
	dead []*Message

	// Per-process FD output cache for Steady oracles: fdOut[p] is valid
	// through time fdUntil[p]. Horizons are dropped to -1 whenever the
	// pattern gains a crash (the Steady guarantee is conditioned on the
	// pattern not changing).
	fdOut   []model.ProcessSet
	fdUntil []model.Time

	// Message arena: chunks are retained across runs and re-carved from
	// the top. Chunk sizes start small and grow geometrically so short
	// runs on a fresh context stay cheap.
	msgChunks       [][]Message
	msgCI, msgOff   int
	msgChunkSize    int
	sendChunks      [][]*Message
	sendCI, sendOff int
	sendChunkSize   int

	// The trace and its history are recycled in place.
	trace   Trace
	history *model.History

	// The run handle and its RNG are recycled too: rand.NewSource's
	// state alone is ~5KB, which used to be reallocated every seed of a
	// streaming sweep. Re-seeding resets the generator to exactly the
	// state a fresh rand.New(rand.NewSource(seed)) starts from, so
	// replay determinism is unaffected (the golden digests pin it).
	run Run
	rng *rand.Rand
}

// NewRunContext returns an empty reusable run context.
func NewRunContext() *RunContext { return &RunContext{} }

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
		rc.procs[p] = nil
		q := &rc.pending[p]
		q.buf = q.buf[:0]
		q.head = 0
		rc.lastEv[p] = -1
		rc.dropped[p] = rc.dropped[p][:0]
		rc.fdUntil[p] = -1
	}
	rc.msgCI, rc.msgOff = 0, 0
	rc.sendCI, rc.sendOff = 0, 0

	if rc.history == nil {
		rc.history = model.NewHistory(n)
	} else {
		rc.history.Reset(n)
	}

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
	tr.History = rc.history
	tr.Pattern = pattern
	tr.Undelivered = tr.Undelivered[:0]
	tr.Stopped = 0
	tr.byProc = grow(tr.byProc, n+1)
	for p, idx := range tr.byProc {
		tr.byProc[p] = idx[:0]
	}
	tr.decisions = tr.decisions[:0]
	for inst, d := range tr.decByInst {
		tr.decByInst[inst] = d[:0]
	}
	for kind, ev := range tr.evByKind {
		tr.evByKind[kind] = ev[:0]
	}
	clear(tr.decided)
	tr.decidedAny = model.EmptySet()
	tr.alive = model.EmptySet()
	tr.aliveValid = false
	return tr
}

// allocMsg carves one Message from the context's arena.
func (rc *RunContext) allocMsg() *Message {
	for {
		if rc.msgCI < len(rc.msgChunks) {
			c := rc.msgChunks[rc.msgCI]
			if rc.msgOff < len(c) {
				m := &c[rc.msgOff]
				rc.msgOff++
				return m
			}
			rc.msgCI++
			rc.msgOff = 0
			continue
		}
		if rc.msgChunkSize == 0 {
			rc.msgChunkSize = 32
		} else if rc.msgChunkSize < 1024 {
			rc.msgChunkSize *= 4
		}
		rc.msgChunks = append(rc.msgChunks, make([]Message, rc.msgChunkSize))
	}
}

// allocSends carves a zero-length, capacity-n pointer slice from the
// context's arena for one event's Sends.
func (rc *RunContext) allocSends(n int) []*Message {
	for {
		if rc.sendCI < len(rc.sendChunks) {
			c := rc.sendChunks[rc.sendCI]
			if rc.sendOff+n <= len(c) {
				s := c[rc.sendOff : rc.sendOff : rc.sendOff+n]
				rc.sendOff += n
				return s
			}
			rc.sendCI++
			rc.sendOff = 0
			continue
		}
		size := rc.sendChunkSize
		if size == 0 {
			size = 64
		} else if size < 2048 {
			size *= 4
		}
		if n > size {
			size = n
		}
		rc.sendChunkSize = size
		rc.sendChunks = append(rc.sendChunks, make([]*Message, size))
	}
}
