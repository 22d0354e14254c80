package sim

import (
	"bufio"
	"fmt"
	"io"

	"realisticfd/internal/model"
)

// EventRecord is one step of the schedule S with its time T[k] (§2.4),
// as recorded in the trace: the process that stepped, the message it
// received (nil for λ), the failure-detector value it saw, the
// messages it sent, and the observable protocol events it produced.
type EventRecord struct {
	Index int
	P     model.ProcessID
	T     model.Time
	// Msg is the received message, nil for the null message λ.
	Msg *Message
	// FD is the failure-detector value d seen in the step.
	FD model.ProcessSet
	// Sends are the messages created by the step.
	Sends []*Message
	// Events are the observable protocol events of the step.
	Events []ProtocolEvent
	// PrevSameProc is the index of P's previous event, or -1.
	PrevSameProc int
}

// Trace is the recorded run R = <F, H, C, S, T>: the full schedule
// with times, the (final, possibly adversarially extended) failure
// pattern, and the state of the message buffer at the end of the run.
// The failure-detector history H is the value each step saw, kept in
// that step's EventRecord.FD and nowhere else.
type Trace struct {
	N       int
	Events  []EventRecord
	Pattern *model.FailurePattern
	// Undelivered is the message buffer content when the run stopped.
	Undelivered []*Message
	// Stopped reports why the run ended.
	Stopped StopReason

	// Incremental indexes, maintained by indexEvent as the engine
	// records steps so that the query API below never rescans the
	// schedule. They are what makes per-step cost O(1) amortized even
	// under StopWhen predicates that query the trace after every step
	// (DESIGN.md §6).
	decByInst  map[int][]LocatedEvent       // decides per instance, schedule order
	evByKind   map[EventKind][]LocatedEvent // protocol events per kind, schedule order
	decided    map[int]model.ProcessSet     // processes that decided an instance
	decidedAny model.ProcessSet             // processes that decided any instance

	// alive caches Ω \ F(MaxTime): the engine keeps it current,
	// updating only when a crash takes effect. aliveValid guards
	// hand-built traces, which fall back to a pattern scan.
	alive      model.ProcessSet
	aliveValid bool

	// scratch is AppendCanonical's, made on first use and retained so
	// that a RunContext-reused trace digests without allocating; mark,
	// gen and past are walkPast's.
	scratch *canonScratch
	mark    []uint32
	gen     uint32
	past    []int
}

// nextEvent extends the schedule by one slot and returns it for the
// engine to fill. The slot is not cleared: within the capacity a
// recycled trace keeps, it still holds the previous run's record, so
// the engine writes every field before calling indexEvent.
func (tr *Trace) nextEvent() *EventRecord {
	i := len(tr.Events)
	if i < cap(tr.Events) {
		tr.Events = tr.Events[:i+1]
	} else {
		tr.Events = append(tr.Events, EventRecord{})
	}
	return &tr.Events[i]
}

// indexEvent updates every incremental index with ev, the filled
// record nextEvent returned last. The engine is the only writer.
func (tr *Trace) indexEvent(ev *EventRecord) {
	for _, pe := range ev.Events {
		if tr.evByKind == nil {
			tr.evByKind = make(map[EventKind][]LocatedEvent)
		}
		le := LocatedEvent{EventIndex: ev.Index, P: ev.P, T: ev.T, Event: pe}
		tr.evByKind[pe.Kind] = append(tr.evByKind[pe.Kind], le)
		if pe.Kind == KindDecide {
			if tr.decByInst == nil {
				tr.decByInst = make(map[int][]LocatedEvent)
				tr.decided = make(map[int]model.ProcessSet)
			}
			tr.decByInst[pe.Instance] = append(tr.decByInst[pe.Instance], le)
			tr.decided[pe.Instance] = tr.decided[pe.Instance].Add(ev.P)
			tr.decidedAny = tr.decidedAny.Add(ev.P)
		}
	}
}

// setAlive records the engine's current alive set Ω \ F(now).
func (tr *Trace) setAlive(s model.ProcessSet) {
	tr.alive = s
	tr.aliveValid = true
}

// AliveNow returns Ω \ F(MaxTime), the processes still alive at the
// current end of the trace. For engine-built traces this is a cached
// set maintained on crash events, not a pattern scan.
func (tr *Trace) AliveNow() model.ProcessSet {
	if tr.aliveValid {
		return tr.alive
	}
	if tr.Pattern == nil {
		return model.EmptySet()
	}
	return tr.Pattern.AliveAt(tr.MaxTime())
}

// StopReason tells why a run ended.
type StopReason int

// Run stop reasons.
const (
	// StopHorizon: the configured horizon was reached.
	StopHorizon StopReason = iota + 1
	// StopCondition: the StopWhen predicate fired.
	StopCondition
	// StopQuiescent is reserved for protocol-level quiescence detection
	// (no process has anything to do and no messages are pending to
	// alive processes). The engine does not currently detect it; the
	// value is kept so existing digests and the numbering of
	// StopAllCrashed stay stable.
	StopQuiescent
	// StopAllCrashed: every process crashed, so no step can be taken.
	// Historically conflated with StopQuiescent, but an all-crashed
	// system is not quiescent — it is dead.
	StopAllCrashed
)

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
	case StopHorizon:
		return "horizon"
	case StopCondition:
		return "condition"
	case StopQuiescent:
		return "quiescent"
	case StopAllCrashed:
		return "all-crashed"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

// EventsOf returns the indices of p's events in schedule order. It
// scans Events on every call, so it is for tests and one-off reports,
// not for StopWhen predicates.
func (tr *Trace) EventsOf(p model.ProcessID) []int {
	var out []int
	for i := range tr.Events {
		if tr.Events[i].P == p {
			out = append(out, i)
		}
	}
	return out
}

// Decisions returns every decide event in the trace for the given
// instance (use AnyInstance for all instances), in schedule order;
// each one's Event carries the Instance and the Value decided.
// The returned slice is served from the trace's incremental index —
// O(1), no rescan — and is owned by the trace: callers must not
// mutate it.
func (tr *Trace) Decisions(instance int) []LocatedEvent {
	if instance == AnyInstance {
		return tr.evByKind[KindDecide]
	}
	return tr.decByInst[instance]
}

// DecisionCount returns the number of decide events of the given
// instance (AnyInstance for all) in O(1).
func (tr *Trace) DecisionCount(instance int) int {
	return len(tr.Decisions(instance))
}

// DecidedSet returns the set of processes that have emitted a decide
// event for the given instance (AnyInstance for any instance), in
// O(1). This is the query StopWhen predicates evaluate after every
// step, so it must not rescan the schedule.
func (tr *Trace) DecidedSet(instance int) model.ProcessSet {
	if instance == AnyInstance {
		return tr.decidedAny
	}
	return tr.decided[instance]
}

// AnyInstance selects events of every instance in trace queries.
const AnyInstance = -1

// ProtocolEvents returns all protocol events of a kind (with their
// event records), in schedule order. The slice is served from the
// trace's incremental index — O(1), no rescan — and is owned by the
// trace: callers must not mutate it. Because events only ever append,
// a per-run consumer may keep an offset into the slice and process
// only the suffix that arrived since its last call; the TRB stop
// predicate does exactly that.
func (tr *Trace) ProtocolEvents(kind EventKind) []LocatedEvent {
	return tr.evByKind[kind]
}

// LocatedEvent is a protocol event located in the trace.
type LocatedEvent struct {
	EventIndex int
	P          model.ProcessID
	T          model.Time
	Event      ProtocolEvent
}

// CausalPast returns the set of event indices in the causal past of
// event i, inclusive of i itself, in increasing order: the transitive
// closure over program-order edges (previous step of the same process)
// and message edges (receive ← send). This is the causal chain of §4.2
// used by the totality definition.
func (tr *Trace) CausalPast(i int) []int {
	if i < 0 || i >= len(tr.Events) {
		return nil
	}
	out := make([]int, 0, len(tr.walkPast(i)))
	for j := range tr.Events {
		if tr.mark[j] == tr.gen {
			out = append(out, j)
		}
	}
	return out
}

// Contributors returns the processes that contributed a message to the
// causal chain of event i, plus the process of i itself: the set the
// totality definition of §4.2 compares against the alive set. A
// process q ≠ P(i) contributes iff some event in the causal past of i
// received a message sent by q. After the first call on a trace it
// allocates nothing.
func (tr *Trace) Contributors(i int) model.ProcessSet {
	out := model.NewProcessSet(tr.Events[i].P)
	for _, j := range tr.walkPast(i) {
		if m := tr.Events[j].Msg; m != nil {
			out = out.Add(m.From)
		}
	}
	return out
}

// walkPast returns the causal past of event i, in no particular order,
// in scratch owned by the trace and valid until the next walk. An event
// is marked visited by stamping it with the walk's generation, so no
// walk clears the marks of the last.
func (tr *Trace) walkPast(i int) []int {
	if len(tr.mark) < len(tr.Events) {
		tr.mark, tr.gen = make([]uint32, cap(tr.Events)), 0
	}
	if tr.gen++; tr.gen == 0 {
		clear(tr.mark)
		tr.gen = 1
	}
	past := append(tr.past[:0], i)
	tr.mark[i] = tr.gen
	for r := 0; r < len(past); r++ {
		ev := &tr.Events[past[r]]
		sent := -1
		if ev.Msg != nil {
			sent = ev.Msg.SentBy
		}
		for _, k := range [2]int{ev.PrevSameProc, sent} {
			if k >= 0 && tr.mark[k] != tr.gen {
				tr.mark[k] = tr.gen
				past = append(past, k)
			}
		}
	}
	tr.past = past
	return past
}

// MaxTime returns the time of the last event, or 0 for an empty trace.
func (tr *Trace) MaxTime() model.Time {
	if len(tr.Events) == 0 {
		return 0
	}
	return tr.Events[len(tr.Events)-1].T
}

// DeliveredTo counts messages received (non-λ steps) by p.
func (tr *Trace) DeliveredTo(p model.ProcessID) int {
	cnt := 0
	for i := range tr.Events {
		if tr.Events[i].P == p && tr.Events[i].Msg != nil {
			cnt++
		}
	}
	return cnt
}

// UndeliveredTo returns pending messages addressed to p when the run
// stopped. Condition (5) of §2.4 requires that messages to correct
// processes be eventually received; experiments that depend on it
// either run to protocol quiescence or audit this set.
func (tr *Trace) UndeliveredTo(p model.ProcessID) []*Message {
	var out []*Message
	for _, m := range tr.Undelivered {
		if m.To == p {
			out = append(out, m)
		}
	}
	return out
}

// Summary is the retained-nothing abstract of one run: everything a
// streaming sweep accumulator folds per seed, with no reference back
// into the trace. Extracting a Summary is the sanctioned way to keep
// run data past a RunContext reuse.
type Summary struct {
	// Digest is the run's full Trace.Digest fingerprint.
	Digest string
	// Stopped reports why the run ended.
	Stopped StopReason
	// Events is the number of scheduled steps.
	Events int
	// MaxTime is the time of the last event.
	MaxTime model.Time
	// Decisions counts decide events across all instances.
	Decisions int
	// Undelivered is the size of the final message buffer.
	Undelivered int
}

// Summary computes the run's streaming summary. It hashes the whole
// trace, so it costs one Digest; call it once per run.
func (tr *Trace) Summary() Summary {
	return Summary{
		Digest:      tr.Digest(),
		Stopped:     tr.Stopped,
		Events:      len(tr.Events),
		MaxTime:     tr.MaxTime(),
		Decisions:   tr.DecisionCount(AnyInstance),
		Undelivered: len(tr.Undelivered),
	}
}

// WriteText writes the human-readable rendering of the full run: one
// line for the header, one per event, one per undelivered message,
// payloads as fmt's %v prints them. It is the debug view of exactly
// what Digest covers, and what the golden-trace files pin (as its
// SHA-256) — so its bytes must never change. It is fmt-based and far
// off the hot path; Digest hashes AppendCanonical, not this.
func (tr *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "n=%d stopped=%d pattern=%s\n", tr.N, tr.Stopped, tr.Pattern)
	for i := range tr.Events {
		ev := &tr.Events[i]
		fmt.Fprintf(bw, "e%d p=%d t=%d fd=%s prev=%d", ev.Index, ev.P, ev.T, ev.FD, ev.PrevSameProc)
		if m := ev.Msg; m != nil {
			fmt.Fprintf(bw, " rcv=(%d %d>%d @%d by%d %v)", m.ID, m.From, m.To, m.SentAt, m.SentBy, m.Payload)
		}
		for _, m := range ev.Sends {
			fmt.Fprintf(bw, " snd=(%d >%d %v)", m.ID, m.To, m.Payload)
		}
		for _, pe := range ev.Events {
			fmt.Fprintf(bw, " ev=(%d %d %v)", pe.Kind, pe.Instance, pe.Value)
		}
		bw.WriteByte('\n')
	}
	for _, m := range tr.Undelivered {
		fmt.Fprintf(bw, "u=(%d %d>%d @%d %v)\n", m.ID, m.From, m.To, m.SentAt, m.Payload)
	}
	return bw.Flush()
}

// String summarizes the trace.
func (tr *Trace) String() string {
	return fmt.Sprintf("trace{%d events, t≤%d, stopped=%v, %d undelivered, pattern=%v}",
		len(tr.Events), tr.MaxTime(), tr.Stopped, len(tr.Undelivered), tr.Pattern)
}
