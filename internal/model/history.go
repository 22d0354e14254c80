package model

import (
	"fmt"
	"sort"
	"strings"
)

// Span is a maximal run of consecutive samples in which a process saw
// the same failure-detector output: the value Out at every sample from
// time From through time To, Count samples in all. An oracle's output
// is piecewise-constant in practice — it changes only at crashes,
// stabilization, or scripted transitions — so a history of S samples
// collapses into far fewer spans, and every query becomes
// O(transitions) instead of O(steps).
type Span struct {
	From  Time
	To    Time
	Count int
	Out   ProcessSet
}

// procHistory is one process's recorded output stream, run-length
// encoded: a new Span starts only when the output differs from the
// previous sample's.
type procHistory struct {
	spans []Span
	count int // total samples, = sum of span counts
}

// History is a recorded failure-detector history H : Ω × Φ → 2^Ω
// (§2.2), sampled at the times processes actually queried their
// modules. Class-membership checkers (package fd) evaluate
// completeness and accuracy properties over a History together with
// the failure pattern of the run.
//
// Samples are stored as change-points (run-length encoded spans) in
// dense per-process slices — n ≤ MaxProcesses, so process IDs index
// directly, no map. Recording a sample whose output equals the
// previous one only bumps the current span's To/Count; memory is
// O(transitions), not O(steps).
//
// A History is not safe for concurrent use; the simulator is
// single-threaded and live collectors serialize externally.
type History struct {
	n     int
	procs []procHistory // indexed by ProcessID; slot 0 unused
}

// NewHistory returns an empty history for a system of n processes.
func NewHistory(n int) *History {
	return &History{n: n, procs: make([]procHistory, n+1)}
}

// N returns the system size.
func (h *History) N() int { return h.n }

// Record appends the value out seen by p at time t. Times must be
// recorded in non-decreasing order per process.
func (h *History) Record(p ProcessID, t Time, out ProcessSet) {
	ph := &h.procs[p]
	if n := len(ph.spans); n > 0 {
		last := &ph.spans[n-1]
		if last.To > t {
			panic(fmt.Sprintf("model: history for %v not in time order: %d after %d", p, t, last.To))
		}
		if last.Out == out {
			last.To = t
			last.Count++
			ph.count++
			return
		}
	}
	ph.spans = append(ph.spans, Span{From: t, To: t, Count: 1, Out: out})
	ph.count++
}

// Spans returns the change-point encoding of p's samples in time
// order: one Span per maximal run of equal outputs. The returned slice
// is owned by the history; callers must not mutate it.
func (h *History) Spans(p ProcessID) []Span {
	if int(p) >= len(h.procs) {
		return nil
	}
	return h.procs[p].spans
}

// SampleCount returns the number of samples recorded for p.
func (h *History) SampleCount(p ProcessID) int {
	if int(p) >= len(h.procs) {
		return 0
	}
	return h.procs[p].count
}

// Last returns the last value p saw at or before t, and whether any
// sample exists in that range.
func (h *History) Last(p ProcessID, t Time) (ProcessSet, bool) {
	ss := h.Spans(p)
	i := sort.Search(len(ss), func(i int) bool { return ss[i].From > t }) - 1
	if i < 0 {
		return ProcessSet{}, false
	}
	return ss[i].Out, true
}

// FinalSuspicions returns the output of each process's last sample.
// For histories recorded to a horizon beyond stabilization this is the
// "eventual, permanent" suspicion set used by completeness checks.
func (h *History) FinalSuspicions(p ProcessID) (ProcessSet, bool) {
	ss := h.Spans(p)
	if len(ss) == 0 {
		return ProcessSet{}, false
	}
	return ss[len(ss)-1].Out, true
}

// SuspectedFrom returns the earliest time from which p suspects q in
// every later sample (the start of permanent suspicion), or false if p
// does not permanently suspect q by the end of the history.
func (h *History) SuspectedFrom(p, q ProcessID) (Time, bool) {
	ss := h.Spans(p)
	if len(ss) == 0 {
		return 0, false
	}
	// Walk backwards over the span suffix in which q is continuously
	// suspected — O(transitions), not O(steps).
	i := len(ss) - 1
	if !ss[i].Out.Has(q) {
		return 0, false
	}
	for i > 0 && ss[i-1].Out.Has(q) {
		i--
	}
	return ss[i].From, true
}

// EverSuspected reports whether p suspected q in any sample, and the
// first time it did.
func (h *History) EverSuspected(p, q ProcessID) (Time, bool) {
	for _, s := range h.Spans(p) {
		if s.Out.Has(q) {
			return s.From, true
		}
	}
	return 0, false
}

// MaxTime returns the largest recorded sample time across all
// processes (the effective horizon of the history).
func (h *History) MaxTime() Time {
	var max Time
	for p := 1; p <= h.n; p++ {
		if ss := h.procs[p].spans; len(ss) > 0 && ss[len(ss)-1].To > max {
			max = ss[len(ss)-1].To
		}
	}
	return max
}

// String summarizes the history: per process, the number of samples
// and the final suspicion set.
func (h *History) String() string {
	var b strings.Builder
	b.WriteString("H{")
	first := true
	for p := ProcessID(1); int(p) <= h.n; p++ {
		ph := &h.procs[p]
		if ph.count == 0 {
			continue
		}
		if !first {
			b.WriteString("; ")
		}
		first = false
		fmt.Fprintf(&b, "%v:%d samples, final %v", p, ph.count, ph.spans[len(ph.spans)-1].Out)
	}
	b.WriteString("}")
	return b.String()
}
