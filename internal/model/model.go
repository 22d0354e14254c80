// Package model implements the formal system model of Delporte-Gallet,
// Fauconnier and Guerraoui, "A Realistic Look At Failure Detectors"
// (DSN 2002), Section 2: processes, the discrete global clock, failure
// patterns, failure-detector histories, and the realism predicate of
// Section 3.1.
//
// The model is the FLP model of asynchronous computation augmented with
// the failure-detector abstraction of Chandra and Toueg. A discrete
// global clock with range Φ = {0, 1, 2, ...} is assumed; the clock is a
// modelling device and is never accessible to protocol code.
package model

import (
	"fmt"
	"strconv"
)

// ProcessID identifies a process p_i in the system Ω = {p_1, ..., p_n}.
// Process IDs are 1-based, matching the paper's indexing: the paper's
// Partially Perfect class P< and the correct-restricted consensus
// algorithm of §6.2 depend on this total order.
type ProcessID int

// String returns the paper's notation for the process, e.g. "p3".
func (p ProcessID) String() string { return "p" + strconv.Itoa(int(p)) }

// Time is a tick of the discrete global clock Φ. Time zero is the
// initial instant; protocol steps happen at strictly increasing times.
type Time int64

// NoCrash is the crash time of a correct process: it is larger than any
// time a run can reach.
const NoCrash Time = 1<<62 - 1

// MaxProcesses bounds the system size n. ProcessSet is backed by a
// single 64-bit word; the paper's experiments use n ≤ 16, so 64 leaves
// ample headroom while keeping set operations O(1).
const MaxProcesses = 64

// MinProcesses is the smallest system the paper's model admits (§2.1
// requires |Ω| = n > 3).
const MinProcesses = 4

// ValidateN reports whether n is an admissible system size per §2.1.
func ValidateN(n int) error {
	if n < MinProcesses {
		return fmt.Errorf("model: n = %d, but the paper's model requires n > 3", n)
	}
	if n > MaxProcesses {
		return fmt.Errorf("model: n = %d exceeds the supported maximum %d", n, MaxProcesses)
	}
	return nil
}

// AllProcesses returns the set Ω for a system of n processes.
func AllProcesses(n int) ProcessSet {
	if n < 0 || n > MaxProcesses {
		panic("model: AllProcesses: n out of range")
	}
	if n == MaxProcesses {
		return ProcessSet{bits: ^uint64(0)}
	}
	return ProcessSet{bits: (uint64(1) << uint(n)) - 1}
}

// Mix64 is the splitmix64 finalizer, the one mixing function behind
// every seeded lottery: the oracles' noise, the simulator's per-message
// fault lottery and the live transport's per-frame one. Its output
// depends only on x, so a draw keyed by (seed, message) or (seed, p, q,
// t) is reproducible by replay.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
