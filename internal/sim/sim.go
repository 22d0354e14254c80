// Package sim is a deterministic discrete-event simulator for the
// asynchronous model of §2.3–2.4 of "A Realistic Look At Failure
// Detectors": computation proceeds in atomic steps in which a process
// (1) receives one message or the null message λ, (2) queries its
// failure-detector module, and (3) changes state and sends messages.
//
// A run is driven by a seeded scheduler, so identical configurations
// replay identical runs — the property the Lemma 4.1 adversary (E2)
// exploits to realize the paper's indistinguishability argument: two
// runs whose failure patterns agree through time t, executed with the
// same seed and a realistic detector, are identical through t.
//
// Deliberate generalization (documented in DESIGN.md): a step may send
// a finite set of messages rather than exactly one; broadcast-heavy
// protocols expand naturally and the equivalence is standard.
package sim

import (
	"fmt"
	"slices"

	"realisticfd/internal/model"
)

// Message is a protocol message in the message buffer (§2.3). Payload
// is owned by the protocol and must be treated as immutable once sent.
type Message struct {
	// ID is unique within a run, in sending order, starting at 1.
	ID int64
	// From and To identify sender and destination.
	From, To model.ProcessID
	// SentAt is the global time of the sending step.
	SentAt model.Time
	// SentBy is the trace index of the sending event, or -1 for
	// messages injected from outside the run.
	SentBy int
	// Payload is the protocol content.
	Payload any
}

// String renders a short description of the message.
func (m *Message) String() string {
	return fmt.Sprintf("m%d %v→%v @%d", m.ID, m.From, m.To, m.SentAt)
}

// Send is a message emission requested by a protocol step.
type Send struct {
	To      model.ProcessID
	Payload any
}

// Broadcast builds a Send to every process in Ω (including self, as
// the flooding algorithms of Chandra-Toueg assume).
func Broadcast(n int, payload any) []Send {
	out := make([]Send, 0, n)
	for p := 1; p <= n; p++ {
		out = append(out, Send{To: model.ProcessID(p), Payload: payload})
	}
	return out
}

// AppendOthers appends a Send of payload to every process of 1..n but
// self, the broadcast of protocols that need no message to themselves.
// Every destination shares the one payload.
func AppendOthers(sends []Send, n int, self model.ProcessID, payload any) []Send {
	sends = slices.Grow(sends, n-1)
	for q := model.ProcessID(1); int(q) <= n; q++ {
		if q != self {
			sends = append(sends, Send{To: q, Payload: payload})
		}
	}
	return sends
}

// EventKind labels observable protocol events recorded in the trace.
type EventKind int

// Observable protocol event kinds.
const (
	// KindDecide marks a consensus decision event.
	KindDecide EventKind = iota + 1
	// KindDeliver marks a broadcast delivery (TRB, atomic broadcast).
	KindDeliver
	// KindFDOutput marks an emulated failure-detector output change
	// (the output(P) variable of the T(D⇒P) reduction).
	KindFDOutput
	// KindViewChange marks a group-membership view installation.
	KindViewChange
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case KindDecide:
		return "decide"
	case KindDeliver:
		return "deliver"
	case KindFDOutput:
		return "fd-output"
	case KindViewChange:
		return "view-change"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// ProtocolEvent is an observable event emitted by a protocol step:
// decisions, deliveries, emulated-detector outputs. Experiments and
// property checkers consume these from the trace.
type ProtocolEvent struct {
	Kind EventKind
	// Instance distinguishes concurrent protocol instances (consensus
	// instance number, TRB instance, view number).
	Instance int
	// Value is the decided/delivered value or emitted set.
	Value any
}

// Actions is what a protocol step returns: messages to send and
// observable events that occurred during the step.
//
// Both slices are valid only until the next Step on the same process.
// Whoever called Step (the engine, which copies them into its
// RunContext's arenas; a Mux, which seals an inner instance's sends into
// envelopes; the live node loop) reads them before stepping that process
// again and neither keeps nor changes them, so a process may return the
// same backing arrays every step, or one shared read-only slice.
type Actions struct {
	Sends  []Send
	Events []ProtocolEvent
}

// Process is one deterministic automaton A_i bound to a process. Step
// is the atomic step of §2.3: in is the received message (nil for λ),
// susp the value seen from the failure-detector module, now the global
// time (exposed for tracing only — protocol logic must not branch on
// it in ways the paper's asynchronous model would forbid; protocols in
// this repository use it only for logging). The returned Actions may be
// reused by the process at its next Step; see Actions. Step must not
// keep in: a Mux presents every inner message in one scratch Message,
// rewritten for the next.
type Process interface {
	Step(in *Message, susp model.ProcessSet, now model.Time) Actions
}

// Quiescer is an optional Process extension for runs that opt in to
// Config.Quiesce. Quiescent(susp) reports that a λ step under the
// detector value susp would change no state and send and emit nothing.
// A process that does not implement it is never quiescent.
type Quiescer interface {
	Quiescent(susp model.ProcessSet) bool
}

// Automaton is a protocol: a family of deterministic automata, one per
// process (§2.3).
type Automaton interface {
	// Spawn instantiates the automaton of process self in a system of
	// n processes.
	Spawn(self model.ProcessID, n int) Process
}

// Respawner is an optional Automaton extension that lets a RunContext
// recycle processes: Respawn is handed the process that last ran in
// self's slot of the context, and may reset and return it in place of a
// fresh Spawn. old may be nil, come from another automaton or from a run
// of another size; Respawn must check it and otherwise Spawn. What old
// sent in its last run is dead by then (see RunContext), so its payload
// chunks may be handed out again.
type Respawner interface {
	Respawn(old Process, self model.ProcessID, n int) Process
}
