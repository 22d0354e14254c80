package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"realisticfd/internal/sim"
)

// Reducer folds a sweep's runs into an accumulator of type A without
// ever retaining a trace: Fold absorbs one run inside the worker that
// executed it (the trace is valid only for the duration of the call —
// workers reuse their sim.RunContext across seeds), and Merge combines
// the accumulators of adjacent seed chunks.
//
// Determinism contract: Fold is applied in seed order within a chunk,
// and Merge is applied in chunk order (prefix-first), regardless of
// worker count or scheduling. An accumulator whose Merge is
// associative over that ordering therefore yields the same value at
// any parallelism. If the accumulator is also chunk-size independent
// (commutative Merge, like SweepStats), the value is a pure function
// of the scenario and seed range alone.
type Reducer[A any] struct {
	// New returns an empty accumulator.
	New func() A
	// Fold absorbs one run. It must not retain r.Trace or anything
	// reachable from it past the call; extract sim.Summary-style data.
	Fold func(A, Result) A
	// Merge combines the accumulator of an earlier seed chunk (first
	// argument) with the one of the chunk immediately after it.
	Merge func(A, A) A
}

// DefaultChunkSize is the seed-chunk granularity of Stream when
// StreamOptions.ChunkSize is unset: small enough that checkpoints are
// frequent, large enough that per-chunk overhead vanishes.
const DefaultChunkSize = 256

// StreamOptions configures a streaming sweep campaign.
type StreamOptions struct {
	// Workers sizes the pool; ≤ 0 means GOMAXPROCS.
	Workers int
	// ChunkSize is the number of consecutive seeds a worker folds into
	// one chunk accumulator; ≤ 0 means DefaultChunkSize. Chunk
	// boundaries are part of a checkpoint's identity: resuming requires
	// the same chunk size.
	ChunkSize int
	// Checkpoint, when non-empty, is the path of the JSON checkpoint
	// file: the merged prefix accumulator, the out-of-order completed
	// chunks, and enough campaign identity to refuse a mismatched
	// resume. It is rewritten (atomically, via rename) after every
	// completed chunk, so an interrupted campaign loses at most the
	// chunks in flight. The accumulator type must round-trip through
	// encoding/json for checkpointing to work, and the scenario must
	// carry a ConfigDigest: Stream refuses to checkpoint without one.
	Checkpoint string
	// Context, when non-nil, allows cancelling the campaign: workers
	// stop claiming chunks, in-flight partial chunks are discarded
	// (a resume recomputes them), and Stream returns the merged prefix
	// plus the context's error.
	Context context.Context
}

// Reduce is the plain streaming fold: every seed is executed on the
// worker pool, folded into per-chunk accumulators, and merged in chunk
// order. No trace outlives its run, so memory stays flat no matter how
// many seeds the range holds.
func Reduce[A any](sc Scenario, seeds SeedRange, workers int, red Reducer[A]) A {
	a, err := Stream(sc, seeds, red, StreamOptions{Workers: workers})
	if err != nil {
		// Without a checkpoint or a cancelable context Stream cannot
		// fail; a failure here is a programming error.
		panic(fmt.Sprintf("harness: Reduce failed: %v", err))
	}
	return a
}

// Stream runs the scenario at every seed of the range in streaming
// mode: the seed space is sharded into fixed-size chunks, each worker
// folds its claimed chunk seed by seed on a reused sim.RunContext, and
// chunk accumulators are merged into a prefix strictly in chunk order.
// With a Checkpoint path the campaign survives interruption: completed
// work is persisted after every chunk and a later Stream call with the
// same scenario/range/chunk-size resumes where it left off (a finished
// checkpoint short-circuits to the stored result). See DESIGN.md §7.
func Stream[A any](sc Scenario, seeds SeedRange, red Reducer[A], opts StreamOptions) (A, error) {
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := seeds.Validate(); err != nil {
		return red.New(), err
	}
	if opts.Checkpoint != "" && sc.ConfigDigest == "" {
		return red.New(), fmt.Errorf("harness: scenario %q has no ConfigDigest to key checkpoint %s on", sc.Name, opts.Checkpoint)
	}
	total := seeds.Count()
	if total == 0 {
		return red.New(), nil
	}
	numChunks := (total + chunk - 1) / chunk

	st := &streamState[A]{
		red:     red,
		prefix:  red.New(),
		pending: make(map[int]A),
		path:    opts.Checkpoint,
		meta: checkpointMeta{
			Schema:       checkpointSchema,
			Scenario:     sc.Name,
			ConfigDigest: sc.ConfigDigest,
			Accumulator:  fmt.Sprintf("%T", red.New()),
			SeedFrom:     seeds.From,
			SeedTo:       seeds.To,
			ChunkSize:    chunk,
		},
	}
	if st.path != "" {
		if err := st.load(); err != nil {
			return red.New(), err
		}
		if st.complete {
			return st.prefix, nil
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numChunks {
		workers = numChunks
	}

	var claim atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			rc := takeRunContext()
			defer returnRunContext(rc)
			for {
				ci := int(claim.Add(1)) - 1
				if ci >= numChunks {
					return
				}
				if st.chunkDone(ci) {
					continue
				}
				if ctx.Err() != nil {
					return
				}
				from := seeds.From + int64(ci)*int64(chunk)
				to := from + int64(chunk)
				if to > seeds.To {
					to = seeds.To
				}
				acc := red.New()
				for s := from; s < to; s++ {
					if ctx.Err() != nil {
						// Mid-chunk interruption: the partial fold is
						// discarded; a resume recomputes the chunk.
						return
					}
					acc = red.Fold(acc, sc.RunIn(rc, s))
				}
				st.deliver(ci, acc)
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return st.prefix, err
	}
	if err := st.firstErr(); err != nil {
		return st.prefix, err
	}
	st.complete = true
	if st.path != "" {
		st.mu.Lock()
		err := st.saveLocked(true)
		st.mu.Unlock()
		if err != nil {
			return st.prefix, err
		}
	}
	return st.prefix, nil
}

// freeContexts is the free list the workers of Stream and SeedMap draw
// their run contexts from and return them to on exit, so the dozens of
// small campaigns behind one experiment table share arenas instead of
// each warming its own. A plain stack rather than a sync.Pool: reuse must
// not depend on when the collector runs, or allocations per seed would
// vary from run to run. It holds at most GOMAXPROCS contexts — what
// one full-width campaign can use — each at its high-water size.
var freeContexts struct {
	mu  sync.Mutex
	rcs []*sim.RunContext
}

// takeRunContext pops a recycled context, or makes the first ones.
func takeRunContext() *sim.RunContext {
	freeContexts.mu.Lock()
	defer freeContexts.mu.Unlock()
	n := len(freeContexts.rcs)
	if n == 0 {
		return sim.NewRunContext()
	}
	rc := freeContexts.rcs[n-1]
	freeContexts.rcs[n-1] = nil
	freeContexts.rcs = freeContexts.rcs[:n-1]
	return rc
}

// returnRunContext hands a worker's context back; beyond the cap it is
// left to the collector.
func returnRunContext(rc *sim.RunContext) {
	freeContexts.mu.Lock()
	defer freeContexts.mu.Unlock()
	if len(freeContexts.rcs) < runtime.GOMAXPROCS(0) {
		freeContexts.rcs = append(freeContexts.rcs, rc)
	}
}

// checkpointSchema identifies the checkpoint file format and, through
// sim.DigestVersion, the run digests XOR-folded into the accumulator it
// stores. v2 added the scenario config digest to the campaign identity
// (v1 keyed a campaign on the scenario *name* alone, so two campaigns
// sharing a name but differing in fault plan or policy silently resumed
// from each other's checkpoints). v3 is v2 written under the binary
// trace digest: a v2 prefix folds text digests, and resuming it would
// silently mix the two kinds in one XOR. v4 adds the accumulator type:
// a v3 SweepStats prefix decodes cleanly into AuditStats, which embeds
// it, and would resume with no audit counted. The digest version is
// part of the schema string, so the next digest format retires these
// files without anyone remembering to. Any other schema is refused
// outright.
const checkpointSchema = "realisticfd-sweep-checkpoint/v4+" + sim.DigestVersion

// checkpointMeta is a campaign's identity: a checkpoint written for a
// different scenario configuration, accumulator, seed range or
// chunking must not be resumed.
type checkpointMeta struct {
	Schema       string `json:"schema"`
	Scenario     string `json:"scenario"`
	ConfigDigest string `json:"config_digest"`
	Accumulator  string `json:"accumulator"`
	SeedFrom     int64  `json:"seed_from"`
	SeedTo       int64  `json:"seed_to"`
	ChunkSize    int    `json:"chunk_size"`
}

// checkpointFile is the persisted campaign state: the prefix
// accumulator (chunks [0, NextChunk) merged in order) plus the
// completed chunks that are still waiting for an earlier neighbour.
type checkpointFile struct {
	checkpointMeta
	Complete  bool                       `json:"complete"`
	NextChunk int                        `json:"next_chunk"`
	Prefix    json.RawMessage            `json:"prefix"`
	Pending   map[string]json.RawMessage `json:"pending,omitempty"`
}

// streamState is the merge coordinator shared by the workers.
type streamState[A any] struct {
	mu       sync.Mutex
	red      Reducer[A]
	prefix   A         // chunks [0, next) merged in order
	next     int       // first chunk not yet merged into prefix
	pending  map[int]A // completed chunks waiting for an earlier one
	complete bool
	path     string
	meta     checkpointMeta
	err      error
}

// chunkDone reports whether chunk ci was already completed (merged
// into the prefix or waiting in pending) — used on resume to skip
// checkpointed work.
func (st *streamState[A]) chunkDone(ci int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if ci < st.next {
		return true
	}
	_, ok := st.pending[ci]
	return ok
}

// deliver hands a completed chunk to the coordinator: it is parked in
// pending, every contiguously available chunk is merged into the
// prefix in chunk order, and the checkpoint (if any) is rewritten.
func (st *streamState[A]) deliver(ci int, acc A) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pending[ci] = acc
	for {
		a, ok := st.pending[st.next]
		if !ok {
			break
		}
		st.prefix = st.red.Merge(st.prefix, a)
		delete(st.pending, st.next)
		st.next++
	}
	if st.path != "" {
		if err := st.saveLocked(false); err != nil && st.err == nil {
			st.err = err
		}
	}
}

func (st *streamState[A]) firstErr() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// saveLocked writes the checkpoint atomically (temp file + rename).
func (st *streamState[A]) saveLocked(complete bool) error {
	f := checkpointFile{
		checkpointMeta: st.meta,
		Complete:       complete,
		NextChunk:      st.next,
	}
	b, err := json.Marshal(st.prefix)
	if err != nil {
		return fmt.Errorf("harness: marshal checkpoint prefix: %w", err)
	}
	f.Prefix = b
	if len(st.pending) > 0 {
		f.Pending = make(map[string]json.RawMessage, len(st.pending))
		// order-free: fills a map, which json.Marshal writes in key order.
		for ci, a := range st.pending {
			b, err := json.Marshal(a)
			if err != nil {
				return fmt.Errorf("harness: marshal checkpoint chunk %d: %w", ci, err)
			}
			f.Pending[strconv.Itoa(ci)] = b
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: marshal checkpoint: %w", err)
	}
	data = append(data, '\n')
	tmp := st.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("harness: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, st.path); err != nil {
		return fmt.Errorf("harness: commit checkpoint: %w", err)
	}
	return nil
}

// load restores campaign state from the checkpoint file; a missing
// file means a fresh campaign, a mismatched one is an error (never
// silently merge incompatible campaigns).
func (st *streamState[A]) load() error {
	data, err := os.ReadFile(st.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("harness: read checkpoint: %w", err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("harness: parse checkpoint %s: %w", st.path, err)
	}
	if f.Schema != checkpointSchema {
		return fmt.Errorf("harness: checkpoint %s has schema %q, but this build reads and writes %q (run digests are %s, and digests of different versions must not be folded together); delete it and restart the campaign",
			st.path, f.Schema, checkpointSchema, sim.DigestVersion)
	}
	if f.checkpointMeta != st.meta {
		return fmt.Errorf("harness: checkpoint %s is for campaign %+v, not %+v",
			st.path, f.checkpointMeta, st.meta)
	}
	prefix := st.red.New()
	if len(f.Prefix) > 0 {
		if err := json.Unmarshal(f.Prefix, &prefix); err != nil {
			return fmt.Errorf("harness: parse checkpoint prefix: %w", err)
		}
	}
	st.prefix = prefix
	st.next = f.NextChunk
	st.complete = f.Complete
	// order-free: fills a map; a file with several bad chunks is refused
	// whichever the error names.
	for key, raw := range f.Pending {
		ci, err := strconv.Atoi(key)
		if err != nil {
			return fmt.Errorf("harness: checkpoint chunk key %q: %w", key, err)
		}
		a := st.red.New()
		if err := json.Unmarshal(raw, &a); err != nil {
			return fmt.Errorf("harness: parse checkpoint chunk %d: %w", ci, err)
		}
		st.pending[ci] = a
	}
	return nil
}
