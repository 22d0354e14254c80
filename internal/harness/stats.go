package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"strconv"

	"realisticfd/internal/sim"
)

// SweepStats is the standard streaming-sweep accumulator: everything
// the large campaigns keep per run, with nothing referencing back into
// a trace. It is JSON-serializable, which is what lets Stream
// checkpoint a half-finished million-seed campaign and resume it.
//
// The digest is an order-independent fingerprint: each run contributes
// sha256(seed ":" runDigest), and contributions are combined by XOR.
// Tagging with the seed keeps the aggregate sensitive to *which* run
// produced *which* digest while making the combine associative and
// commutative — so the fingerprint is independent of chunk size and
// worker count, and a resumed campaign reproduces the uninterrupted
// one byte for byte.
type SweepStats struct {
	// Runs counts completed runs (including errored ones).
	Runs int64 `json:"runs"`
	// Errors counts runs that failed with a configuration error.
	Errors int64 `json:"errors"`
	// Digest is the hex XOR-fold of per-run seed-tagged digests.
	Digest string `json:"digest"`
	// Stops counts runs per stop reason.
	Stops map[string]int64 `json:"stops,omitempty"`
	// Decisions totals decide events across all runs and instances.
	Decisions int64 `json:"decisions"`
	// Events totals scheduled steps across all runs.
	Events int64 `json:"events"`
	// Undelivered totals final message-buffer sizes.
	Undelivered int64 `json:"undelivered"`
	// DurationHist is a log2 histogram of run end times: bucket i
	// counts runs whose MaxTime t satisfies 2^(i-1) ≤ t < 2^i (bucket
	// 0 holds t ≤ 0, bucket 31 everything ≥ 2^30).
	DurationHist [32]int64 `json:"duration_hist"`
}

// durationBucket maps a run end time to its log2 histogram bucket.
func durationBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > 31 {
		b = 31
	}
	return b
}

// xorDigest folds one seed-tagged run digest into the hex accumulator.
// It runs once per seed of a streaming sweep, so the preimage and both
// hex conversions stay in fixed arrays: a run digest costs only the
// string returned (an error text longer than a digest spills to the
// heap, which no sweep does per seed).
func xorDigest(acc string, seed int64, runDigest string) string {
	var pre [len("-9223372036854775808:") + 2*sha256.Size]byte
	b := append(strconv.AppendInt(pre[:0], seed, 10), ':')
	h := sha256.Sum256(append(b, runDigest...))

	var cur [sha256.Size]byte
	var hx [2 * sha256.Size]byte
	if acc != "" {
		copy(hx[:], acc)
		if _, err := hex.Decode(cur[:], hx[:]); err != nil || len(acc) != len(hx) {
			panic(fmt.Sprintf("harness: malformed sweep digest %q", acc))
		}
	}
	for i := range cur {
		cur[i] ^= h[i]
	}
	hex.Encode(hx[:], cur[:])
	return string(hx[:])
}

// xorHex XORs two hex digest accumulators (either may be empty).
func xorHex(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	ab, err1 := hex.DecodeString(a)
	bb, err2 := hex.DecodeString(b)
	if err1 != nil || err2 != nil || len(ab) != len(bb) {
		panic(fmt.Sprintf("harness: malformed sweep digests %q / %q", a, b))
	}
	for i := range ab {
		ab[i] ^= bb[i]
	}
	return hex.EncodeToString(ab)
}

// fold absorbs one run. The trace is read while still owned by the
// worker's run context and nothing of it is retained.
func (st SweepStats) fold(r Result) SweepStats {
	st.Runs++
	if r.Err != nil {
		st.Errors++
		st.Digest = xorDigest(st.Digest, r.Seed, "err:"+r.Err.Error())
		return st
	}
	s := r.Trace.Summary()
	st.Digest = xorDigest(st.Digest, r.Seed, s.Digest)
	if st.Stops == nil {
		st.Stops = make(map[string]int64, 4)
	}
	st.Stops[s.Stopped.String()]++
	st.Decisions += int64(s.Decisions)
	st.Events += int64(s.Events)
	st.Undelivered += int64(s.Undelivered)
	st.DurationHist[durationBucket(int64(s.MaxTime))]++
	return st
}

// merge combines two disjoint accumulators.
func (st SweepStats) merge(o SweepStats) SweepStats {
	st.Runs += o.Runs
	st.Errors += o.Errors
	st.Digest = xorHex(st.Digest, o.Digest)
	if len(o.Stops) > 0 && st.Stops == nil {
		st.Stops = make(map[string]int64, len(o.Stops))
	}
	// order-free: sums per key.
	for k, v := range o.Stops {
		st.Stops[k] += v
	}
	st.Decisions += o.Decisions
	st.Events += o.Events
	st.Undelivered += o.Undelivered
	for i := range st.DurationHist {
		st.DurationHist[i] += o.DurationHist[i]
	}
	return st
}

// SweepReducer returns the standard reducer over SweepStats: the
// accumulator behind the bench sweep, the experiment tables and any
// campaign that wants digests + counters + latency histograms without
// retaining a single trace.
func SweepReducer() Reducer[SweepStats] {
	return Reducer[SweepStats]{
		New:   func() SweepStats { return SweepStats{} },
		Fold:  func(st SweepStats, r Result) SweepStats { return st.fold(r) },
		Merge: func(a, b SweepStats) SweepStats { return a.merge(b) },
	}
}

// AuditStats is SweepStats plus the verdicts of a per-run safety
// audit: the accumulator of fdsim's sweeps. Embedding keeps the
// SweepStats fields at the top level of the JSON encoding.
type AuditStats struct {
	SweepStats
	// AuditFailures counts the runs the audit rejected (runs that failed
	// to execute count as Errors and are not audited).
	AuditFailures int64 `json:"audit_failures"`
	// FirstFailure is the lowest-seeded rejected run, if any.
	FirstFailure *AuditFailure `json:"first_failure,omitempty"`
}

// AuditFailure names one run the audit rejected.
type AuditFailure struct {
	Seed  int64  `json:"seed"`
	Error string `json:"error"`
}

// AuditReducer folds every run into SweepStats and checks its trace
// with audit (nil audits nothing). Runs fold in seed order within a
// chunk and chunks merge prefix-first, so the first failure kept is the
// lowest failing seed at any chunk size or worker count.
func AuditReducer(audit func(*sim.Trace) error) Reducer[AuditStats] {
	return Reducer[AuditStats]{
		New: func() AuditStats { return AuditStats{} },
		Fold: func(st AuditStats, r Result) AuditStats {
			st.SweepStats = st.SweepStats.fold(r)
			if r.Err != nil || audit == nil {
				return st
			}
			if err := audit(r.Trace); err != nil {
				st.AuditFailures++
				if st.FirstFailure == nil {
					st.FirstFailure = &AuditFailure{Seed: r.Seed, Error: err.Error()}
				}
			}
			return st
		},
		Merge: func(a, b AuditStats) AuditStats {
			a.SweepStats = a.SweepStats.merge(b.SweepStats)
			a.AuditFailures += b.AuditFailures
			if a.FirstFailure == nil {
				a.FirstFailure = b.FirstFailure
			}
			return a
		},
	}
}
