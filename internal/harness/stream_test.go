package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"realisticfd/internal/sim"
)

// refStats folds retained runs sequentially in seed order: the
// reference the streaming path must reproduce exactly.
func refStats(t *testing.T, sc Scenario, seeds SeedRange) SweepStats {
	t.Helper()
	red := SweepReducer()
	st := red.New()
	for _, r := range SeedMap(seeds, 1, retained(sc)) {
		st = red.Fold(st, r)
	}
	return st
}

func assertStatsEqual(t *testing.T, label string, got, want SweepStats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: streaming stats diverged:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestStreamMatchesRetained is the streaming-vs-retained equivalence
// gate: Reduce over reused run contexts, at any worker count and chunk
// size, must equal a sequential fold over fully retained traces — for
// clean and lossy links alike.
func TestStreamMatchesRetained(t *testing.T) {
	t.Parallel()
	for _, faults := range []*sim.LinkFaults{
		nil,
		{DropSteps: []sim.RateStep{{Pct: 20}}, DelaySteps: []sim.DelayStep{{Max: 3}}},
	} {
		sc := testScenario(faults)
		want := refStats(t, sc, Seeds(24))
		if want.Runs != 24 || want.Errors != 0 {
			t.Fatalf("reference sweep: %+v", want)
		}
		for _, opts := range []StreamOptions{
			{Workers: 1, ChunkSize: 24},
			{Workers: 2 * runtime.GOMAXPROCS(0), ChunkSize: 5},
			{Workers: 3, ChunkSize: 1},
		} {
			got, err := Stream(sc, Seeds(24), SweepReducer(), opts)
			if err != nil {
				t.Fatalf("Stream(%+v): %v", opts, err)
			}
			assertStatsEqual(t, "faults/chunked", got, want)
		}
		got := Reduce(sc, Seeds(24), 0, SweepReducer())
		assertStatsEqual(t, "Reduce", got, want)
	}
}

// TestStreamMergeRace exercises the merge/checkpoint coordinator under
// maximum contention; its value is running under -race in CI.
func TestStreamMergeRace(t *testing.T) {
	t.Parallel()
	sc := testScenario(&sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 10}}})
	sc.ConfigDigest = "sha256:race"
	path := filepath.Join(t.TempDir(), "race.ckpt")
	got, err := Stream(sc, Seeds(32), SweepReducer(), StreamOptions{
		Workers: 4 * runtime.GOMAXPROCS(0), ChunkSize: 1, Checkpoint: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs != 32 {
		t.Fatalf("streamed %d runs, want 32", got.Runs)
	}
}

// interruptAfter cancels ctx after the reducer has folded n runs —
// deliberately not aligned to a chunk boundary, so the kill lands
// mid-chunk and the partial chunk must be recomputed on resume.
func interruptAfter(red Reducer[SweepStats], n int64, cancel context.CancelFunc) Reducer[SweepStats] {
	var folded atomic.Int64
	inner := red.Fold
	red.Fold = func(st SweepStats, r Result) SweepStats {
		if folded.Add(1) == n {
			cancel()
		}
		return inner(st, r)
	}
	return red
}

// TestCheckpointResume kills a checkpointed campaign mid-chunk, then
// resumes it and checks the merged accumulator equals an uninterrupted
// run's. A third invocation must short-circuit on the completed
// checkpoint without executing anything.
func TestCheckpointResume(t *testing.T) {
	t.Parallel()
	sc := testScenario(&sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 15}}, DelaySteps: []sim.DelayStep{{Max: 2}}})
	sc.ConfigDigest = "sha256:resume"
	seeds := Seeds(30)
	want := refStats(t, sc, seeds)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opts := StreamOptions{Workers: 2, ChunkSize: 4, Checkpoint: path}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killOpts := opts
	killOpts.Context = ctx
	partial, err := Stream(sc, seeds, interruptAfter(SweepReducer(), 10, cancel), killOpts)
	if err != context.Canceled {
		t.Fatalf("interrupted campaign returned err=%v, want context.Canceled", err)
	}
	if partial.Runs >= want.Runs {
		t.Fatalf("interrupted campaign merged all %d runs; the kill was a no-op", partial.Runs)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	resumed, err := Stream(sc, seeds, SweepReducer(), opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertStatsEqual(t, "resumed", resumed, want)

	// The completed checkpoint short-circuits: zero runs executed.
	var folded atomic.Int64
	counting := SweepReducer()
	inner := counting.Fold
	counting.Fold = func(st SweepStats, r Result) SweepStats {
		folded.Add(1)
		return inner(st, r)
	}
	again, err := Stream(sc, seeds, counting, opts)
	if err != nil {
		t.Fatalf("re-run on completed checkpoint: %v", err)
	}
	assertStatsEqual(t, "completed-checkpoint", again, want)
	if folded.Load() != 0 {
		t.Fatalf("completed checkpoint still executed %d runs", folded.Load())
	}
}

// TestCheckpointMismatchRejected pins the identity check: a checkpoint
// from a different campaign (other seed range / chunking / accumulator)
// must refuse to resume instead of silently merging incompatible state.
// A SweepStats prefix decodes cleanly into AuditStats, which embeds it,
// so without the accumulator in the identity an audited campaign would
// resume from an unaudited one with no audit counted.
func TestCheckpointMismatchRejected(t *testing.T) {
	t.Parallel()
	sc := testScenario(nil)
	sc.ConfigDigest = "sha256:mismatch"
	path := filepath.Join(t.TempDir(), "mismatch.ckpt")
	if _, err := Stream(sc, Seeds(8), SweepReducer(), StreamOptions{ChunkSize: 4, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := Stream(sc, Seeds(16), SweepReducer(), StreamOptions{ChunkSize: 4, Checkpoint: path}); err == nil {
		t.Fatal("seed-range mismatch was not rejected")
	}
	if _, err := Stream(sc, Seeds(8), SweepReducer(), StreamOptions{ChunkSize: 2, Checkpoint: path}); err == nil {
		t.Fatal("chunk-size mismatch was not rejected")
	}
	if _, err := Stream(sc, Seeds(8), AuditReducer(nil), StreamOptions{ChunkSize: 4, Checkpoint: path}); err == nil {
		t.Fatal("accumulator mismatch was not rejected")
	}
}

// TestCheckpointConfigChangeRejected is the regression test for the
// name-only checkpoint identity bug: two campaigns with the same
// scenario name but different configurations used to resume from each
// other's checkpoints, silently merging incompatible runs. The identity
// includes the ConfigDigest, so the same name under a changed digest
// must refuse to resume.
func TestCheckpointConfigChangeRejected(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "config.ckpt")
	sc := testScenario(&sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 10}}})
	sc.ConfigDigest = "sha256:drop10"
	if _, err := Stream(sc, Seeds(8), SweepReducer(), StreamOptions{ChunkSize: 4, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}

	changed := testScenario(&sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 30}}}) // same Name, different faults
	changed.ConfigDigest = "sha256:drop30"
	if changed.Name != sc.Name {
		t.Fatalf("test scenarios must share a name: %q vs %q", changed.Name, sc.Name)
	}
	if _, err := Stream(changed, Seeds(8), SweepReducer(), StreamOptions{ChunkSize: 4, Checkpoint: path}); err == nil {
		t.Fatal("changed ConfigDigest under the same scenario name was not rejected")
	}

	// The identical configuration still short-circuits on the completed
	// checkpoint.
	if _, err := Stream(sc, Seeds(8), SweepReducer(), StreamOptions{ChunkSize: 4, Checkpoint: path}); err != nil {
		t.Fatalf("identical campaign rejected its own checkpoint: %v", err)
	}
}

// TestCheckpointWithoutConfigDigestRefused: a scenario with no
// ConfigDigest has no campaign identity beyond its name, so Stream
// refuses to checkpoint it — before running a seed or touching the
// file — while the same campaign without a checkpoint runs as before.
func TestCheckpointWithoutConfigDigestRefused(t *testing.T) {
	t.Parallel()
	sc := testScenario(nil)
	path := filepath.Join(t.TempDir(), "anonymous.ckpt")
	var folded atomic.Int64
	red := SweepReducer()
	inner := red.Fold
	red.Fold = func(st SweepStats, r Result) SweepStats {
		folded.Add(1)
		return inner(st, r)
	}
	_, err := Stream(sc, Seeds(8), red, StreamOptions{ChunkSize: 4, Checkpoint: path})
	if err == nil || !strings.Contains(err.Error(), "ConfigDigest") {
		t.Fatalf("checkpoint without a ConfigDigest: err = %v, want a refusal naming ConfigDigest", err)
	}
	if folded.Load() != 0 {
		t.Fatalf("refused campaign still executed %d runs", folded.Load())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused campaign touched its checkpoint: %v", err)
	}
	got, err := Stream(sc, Seeds(8), SweepReducer(), StreamOptions{ChunkSize: 4})
	if err != nil || got.Runs != 8 {
		t.Fatalf("uncheckpointed campaign: %+v, %v", got, err)
	}
}

// TestCheckpointV1Rejected pins the schema migrations: a checkpoint of
// a retired schema must fail with an error that names the schema it
// found and the digest version this build writes, rather than fall
// through to a field-by-field mismatch — or, worse, resume. v1 has no
// config digest to verify; v2 is well-formed in every field and would
// resume cleanly, XOR-folding its text digests with binary ones; so
// would v3 under fdtrace/2, folding digests of two encodings; v3 under
// this build's digests has no accumulator type, and its SweepStats
// prefix would resume an AuditStats campaign.
func TestCheckpointV1Rejected(t *testing.T) {
	t.Parallel()
	sc := testScenario(nil)
	sc.ConfigDigest = "sha256:retired"
	for version, file := range map[string]string{
		"v1": `{"schema":"realisticfd-sweep-checkpoint/v1","scenario":"sflooding","seed_from":0,"seed_to":8,"chunk_size":4,"complete":true,"next_chunk":2,"prefix":{}}`,
		"v2": `{"schema":"realisticfd-sweep-checkpoint/v2","scenario":"sflooding","config_digest":"` + sc.ConfigDigest + `","seed_from":0,"seed_to":8,"chunk_size":4,"complete":false,"next_chunk":1,"prefix":{"runs":4,"errors":0,"digest":"` + strings.Repeat("ab", 32) + `","decisions":0,"events":0,"undelivered":0}}`,
		// The v3 layout under the previous digest encoding: its
		// prefix XOR-folds fdtrace/2 digests.
		"v3+fdtrace/2": `{"schema":"realisticfd-sweep-checkpoint/v3+fdtrace/2","scenario":"sflooding","config_digest":"` + sc.ConfigDigest + `","seed_from":0,"seed_to":8,"chunk_size":4,"complete":false,"next_chunk":1,"prefix":{"runs":4,"errors":0,"digest":"` + strings.Repeat("ab", 32) + `","decisions":0,"events":0,"undelivered":0}}`,
		// The previous layout under this build's digests: no
		// accumulator type, a SweepStats prefix.
		"v3+" + sim.DigestVersion: `{"schema":"realisticfd-sweep-checkpoint/v3+` + sim.DigestVersion + `","scenario":"sflooding","config_digest":"` + sc.ConfigDigest + `","seed_from":0,"seed_to":8,"chunk_size":4,"complete":true,"next_chunk":2,"prefix":{"runs":8,"errors":0,"digest":"` + strings.Repeat("ab", 32) + `","decisions":0,"events":0,"undelivered":0}}`,
	} {
		if version == "v4+"+sim.DigestVersion {
			t.Fatalf("%s is this build's own schema", version)
		}
		path := filepath.Join(t.TempDir(), strings.ReplaceAll(version, "/", "-")+".ckpt")
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Stream(sc, Seeds(8), SweepReducer(), StreamOptions{ChunkSize: 4, Checkpoint: path})
		if err == nil {
			t.Fatalf("%s checkpoint was not rejected", version)
		}
		for _, want := range []string{"/" + version, sim.DigestVersion} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s rejection does not mention %q: %v", version, want, err)
			}
		}
	}
}

// TestSeedRangeValidation pins the range guard: inverted ranges and
// counts that overflow int are rejected at the sweep entry points
// instead of misbehaving downstream.
func TestSeedRangeValidation(t *testing.T) {
	t.Parallel()
	inverted := SeedRange{From: 10, To: 3}
	if err := inverted.Validate(); err == nil {
		t.Fatal("inverted range validated")
	}
	if _, err := Stream(testScenario(nil), inverted, SweepReducer(), StreamOptions{}); err == nil {
		t.Fatal("Stream accepted an inverted range")
	}
	overflow := SeedRange{From: math.MinInt64, To: math.MaxInt64}
	if err := overflow.Validate(); err == nil {
		t.Fatal("overflowing range validated")
	}
	if _, err := Stream(testScenario(nil), overflow, SweepReducer(), StreamOptions{}); err == nil {
		t.Fatal("Stream accepted a range whose count overflows int")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SeedMap did not reject an inverted range")
			}
		}()
		SeedMap(inverted, 1, func(*sim.RunContext, int64) int { return 0 })
	}()
	if err := (SeedRange{From: 5, To: 5}).Validate(); err != nil {
		t.Fatalf("empty range rejected: %v", err)
	}
	if got := SeedMap(SeedRange{From: 5, To: 5}, 1, retained(testScenario(nil))); got != nil {
		t.Fatalf("empty range swept %d runs", len(got))
	}
}

// TestSweepStatsJSONRoundTrip pins the checkpoint serialization of the
// standard accumulator: a fold → JSON → fold-resume cycle must be
// lossless, including the histogram and stop counters.
func TestSweepStatsJSONRoundTrip(t *testing.T) {
	t.Parallel()
	st := refStats(t, testScenario(&sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 25}}}), Seeds(6))
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	assertStatsEqual(t, "round-trip", back, st)
}

// TestXorDigestDefinition holds the per-seed fold, which builds its
// preimage and hex in fixed arrays, to the definition in SweepStats's
// doc — each run contributes sha256(seed ":" runDigest), combined by
// XOR — and to its budget of one allocation, the string it returns.
func TestXorDigestDefinition(t *testing.T) {
	acc := ""
	var want [sha256.Size]byte
	for _, run := range []struct {
		seed   int64
		digest string
	}{
		{0, strings.Repeat("0f", 32)},
		{math.MinInt64, strings.Repeat("a1", 32)},
		{7, "err:" + strings.Repeat("longer than a digest ", 8)},
	} {
		h := sha256.Sum256([]byte(fmt.Sprintf("%d:%s", run.seed, run.digest)))
		for i := range want {
			want[i] ^= h[i]
		}
		if acc = xorDigest(acc, run.seed, run.digest); acc != hex.EncodeToString(want[:]) {
			t.Fatalf("after seed %d: accumulator %s, want %x", run.seed, acc, want)
		}
	}
	digest := strings.Repeat("5c", 32)
	if got := testing.AllocsPerRun(100, func() { acc = xorDigest(acc, 1_000_000, digest) }); got > 1 {
		t.Errorf("xorDigest: %.0f allocations per seed, want ≤ 1", got)
	}
}

// TestStreamEmptyRange pins the degenerate case.
func TestStreamEmptyRange(t *testing.T) {
	t.Parallel()
	got, err := Stream(testScenario(nil), Seeds(0), SweepReducer(), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs != 0 || got.Digest != "" {
		t.Fatalf("empty range produced %+v", got)
	}
}

// TestStreamRecyclesRunContexts pins the run-context free list behind
// Stream: 200 back-to-back campaigns at four workers (so every exit
// returns more contexts than the list keeps whenever GOMAXPROCS < 4)
// must never have two workers folding out of one context at once, must
// leave at most GOMAXPROCS distinct contexts on the list, and must
// produce the accumulators fresh contexts produce. Most of its value is
// under -race, where a shared context is also a reported data race.
func TestStreamRecyclesRunContexts(t *testing.T) {
	t.Parallel()
	sc := testScenario(&sim.LinkFaults{DelaySteps: []sim.DelayStep{{Max: 3}}})
	seeds := Seeds(8)
	want := refStats(t, sc, seeds)

	var (
		mu     sync.Mutex
		inUse  = map[*sim.Trace]bool{}
		shared atomic.Int64
	)
	red := SweepReducer()
	inner := red.Fold
	red.Fold = func(st SweepStats, r Result) SweepStats {
		mu.Lock()
		if inUse[r.Trace] {
			shared.Add(1)
		}
		inUse[r.Trace] = true
		mu.Unlock()
		runtime.Gosched() // let another worker run while this trace is held
		st = inner(st, r)
		mu.Lock()
		delete(inUse, r.Trace)
		mu.Unlock()
		return st
	}
	for i := 0; i < 200; i++ {
		got, err := Stream(sc, seeds, red, StreamOptions{Workers: 4, ChunkSize: 2})
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
		assertStatsEqual(t, "recycled contexts", got, want)
	}
	if n := shared.Load(); n != 0 {
		t.Errorf("%d folds ran on a context another worker was folding from", n)
	}

	freeContexts.mu.Lock()
	defer freeContexts.mu.Unlock()
	if got, max := len(freeContexts.rcs), runtime.GOMAXPROCS(0); got > max {
		t.Errorf("free list holds %d contexts, cap is GOMAXPROCS = %d", got, max)
	}
	distinct := map[*sim.RunContext]bool{}
	for _, rc := range freeContexts.rcs {
		if rc == nil || distinct[rc] {
			t.Errorf("free list holds a nil or duplicate context: %v", freeContexts.rcs)
		}
		distinct[rc] = true
	}
}

// TestAuditReducerKeepsLowestFailure pins the audit tally: the count
// of rejected runs and the lowest rejected seed with its error, the
// same at every chunk size and worker count, with the SweepStats part
// equal to SweepReducer's.
func TestAuditReducerKeepsLowestFailure(t *testing.T) {
	t.Parallel()
	sc := testScenario(nil)
	seeds := SeedRange{From: 3, To: 27}
	want := refStats(t, sc, seeds)
	audit := func(tr *sim.Trace) error {
		if n := len(tr.Events); n%3 == 0 {
			return fmt.Errorf("%d events", n)
		}
		return nil
	}
	var failures int64
	var first *AuditFailure
	for _, r := range SeedMap(seeds, 1, retained(sc)) {
		if err := audit(r.Trace); err != nil {
			failures++
			if first == nil {
				first = &AuditFailure{Seed: r.Seed, Error: err.Error()}
			}
		}
	}
	if failures == 0 || first.Seed == seeds.From {
		t.Fatalf("audit must reject some run after the first: %d failures, first %+v", failures, first)
	}
	for _, opts := range []StreamOptions{
		{Workers: 1, ChunkSize: 24},
		{Workers: 4, ChunkSize: 1},
		{Workers: 3, ChunkSize: 7},
	} {
		got, err := Stream(sc, seeds, AuditReducer(audit), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertStatsEqual(t, "audited", got.SweepStats, want)
		if got.AuditFailures != failures || got.FirstFailure == nil || *got.FirstFailure != *first {
			t.Fatalf("%+v: audit failures %d, first %+v; want %d, %+v", opts, got.AuditFailures, got.FirstFailure, failures, first)
		}
	}
	if got := Reduce(sc, seeds, 0, AuditReducer(nil)); got.AuditFailures != 0 || got.FirstFailure != nil {
		t.Fatalf("nil audit rejected runs: %+v", got)
	}
}
