package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// Config describes one run of an algorithm A using a failure detector
// D under a failure pattern F (§2.4).
type Config struct {
	// N is the system size |Ω|; must satisfy 3 < N ≤ 64.
	N int
	// Automaton is the algorithm A.
	Automaton Automaton
	// Oracle is the failure detector D.
	Oracle fd.Oracle
	// Pattern is the failure pattern F. The engine uses it in place so
	// adversarial hooks may extend it with crashes mid-run, and it
	// registers a crash hook on it for the duration of the run — so a
	// pattern must never be shared with a concurrently executing run,
	// even fully scripted; pass a Clone if the caller needs the
	// original preserved. Nil means failure-free.
	Pattern *model.FailurePattern
	// Horizon bounds the run length in global-clock ticks. There is
	// exactly one step per tick, so Horizon is also the step budget.
	Horizon model.Time
	// Seed drives all scheduling randomness. Identical configs with
	// identical seeds replay identical runs.
	Seed int64
	// Policy schedules processes and message deliveries; nil means a
	// fresh FairPolicy.
	Policy Policy
	// StopWhen, if non-nil, ends the run early once it returns true;
	// it is evaluated after every step. Predicates should use the
	// trace's indexed queries (DecidedSet, ProtocolEvents, AliveNow) —
	// they are O(1) per call, keeping the whole run O(steps).
	StopWhen func(*Trace) bool
	// AfterStep, if non-nil, is invoked after every recorded step; the
	// adversarial experiments use it to observe decisions and crash
	// processes through the Run handle.
	AfterStep func(*Run, *EventRecord)
	// Quiesce, if true, ends the run with StopQuiescent once nothing
	// can happen any more (see StopQuiescent). It needs a Steady oracle
	// and no AfterStep hook; without them it never fires.
	Quiesce bool
}

// msgQueue is one destination's slice of the message buffer: a slice
// with a head offset, so removing the oldest pending message — the
// pick every fair policy makes almost every step — is O(1) instead of
// the O(m) splice of a plain slice. Sending order is observable
// through the Policy interface, so removal must preserve it: picking
// index i shifts the i older messages up one slot (O(i), i typically
// 0) rather than splicing the m−i younger ones down.
type msgQueue struct {
	buf  []*Message
	head int
}

// view returns the pending messages in sending order.
func (q *msgQueue) view() []*Message { return q.buf[q.head:] }

// push appends a newly sent message.
func (q *msgQueue) push(m *Message) { q.buf = append(q.buf, m) }

// remove extracts the message at index i of view(), preserving order.
func (q *msgQueue) remove(i int) *Message {
	j := q.head + i
	m := q.buf[j]
	copy(q.buf[q.head+1:j+1], q.buf[q.head:j])
	q.buf[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head >= 256 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		for k := n; k < len(q.buf); k++ {
			q.buf[k] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return m
}

// purge removes every message of dead from the queue, preserving the
// order of the survivors. dead must be a subsequence of view() in
// queue order (which is how DropSifter implementations report it).
func (q *msgQueue) purge(dead []*Message) {
	live := q.buf[q.head:q.head]
	di := 0
	for _, m := range q.view() {
		if di < len(dead) && m == dead[di] {
			di++
			continue
		}
		live = append(live, m)
	}
	for i := q.head + len(live); i < len(q.buf); i++ {
		q.buf[i] = nil
	}
	q.buf = q.buf[:q.head+len(live)]
}

// Run is a live run handle passed to AfterStep hooks.
type Run struct {
	cfg     Config
	rc      *RunContext
	now     model.Time
	rng     *rand.Rand
	pattern *model.FailurePattern
	trace   *Trace
	nextMsg int64
	sifter  DropSifter // policy's drop reporter, nil if none
	inSet   setPolicy  // policy's set-reading scheduler, nil if none
	steady  fd.Steady  // oracle's stability declaration, nil if none

	// Alive-set cache: rebuilt only when a crash takes effect, never
	// per tick. aliveList is sorted by ID (the Policy contract);
	// nextCrash is the earliest crash time among its members, kept
	// current by the pattern's crash hook when adversarial hooks
	// extend F mid-run.
	aliveList []model.ProcessID
	aliveSet  model.ProcessSet
	nextCrash model.Time
}

// Now returns the current global time.
func (r *Run) Now() model.Time { return r.now }

// Pattern returns the run's failure pattern (live; hooks may extend
// it via Crash).
func (r *Run) Pattern() *model.FailurePattern { return r.pattern }

// Trace returns the trace recorded so far.
func (r *Run) Trace() *Trace { return r.trace }

// Crash makes p crash at the current time: it takes no further steps.
// This is the adversary's move in the Lemma 4.1 experiment ("all
// processes crash at time t, except p_j").
func (r *Run) Crash(p model.ProcessID) error {
	return r.pattern.Crash(p, r.now)
}

// rebuildAlive recomputes the alive cache from scratch: members of
// Ω \ F(t) in ID order, and the earliest upcoming crash among them.
func (r *Run) rebuildAlive(t model.Time) {
	r.aliveList = r.aliveList[:0]
	r.aliveSet = model.EmptySet()
	r.nextCrash = model.NoCrash
	for p := 1; p <= r.cfg.N; p++ {
		id := model.ProcessID(p)
		if !r.pattern.Alive(id, t) {
			continue
		}
		r.aliveList = append(r.aliveList, id)
		r.aliveSet = r.aliveSet.Add(id)
		if ct, crashed := r.pattern.CrashTime(id); crashed && ct < r.nextCrash {
			r.nextCrash = ct
		}
	}
	r.trace.setAlive(r.aliveSet)
}

// refreshAlive updates the alive cache iff a crash has taken effect by
// time t; otherwise it is O(1). The pattern's crash hook lowers
// nextCrash when an AfterStep adversary extends F mid-run, so scripted
// and adversarial crashes both land here.
func (r *Run) refreshAlive(t model.Time) {
	if t >= r.nextCrash {
		r.rebuildAlive(t)
	}
}

// Execute runs the configured algorithm in a fresh context and returns
// the recorded trace. The returned error is non-nil only for
// configuration problems; a run in which all processes crash ends
// normally with the trace produced so far and Stopped = StopAllCrashed.
//
// Sweeps that execute many seeds back to back should prefer a reused
// RunContext (one per worker): it recycles the trace, queues and
// message arenas across runs, at the price that each returned trace is
// only valid until the context's next run.
func Execute(cfg Config) (*Trace, error) {
	return NewRunContext().Execute(cfg)
}

// Execute runs the configured algorithm reusing the context's arenas.
// The returned Trace — and everything reachable from it — is valid
// only until the next Execute call on the same context; see the
// RunContext contract.
func (rc *RunContext) Execute(cfg Config) (*Trace, error) {
	if err := model.ValidateN(cfg.N); err != nil {
		return nil, err
	}
	if cfg.Automaton == nil {
		return nil, errors.New("sim: Config.Automaton is nil")
	}
	if cfg.Oracle == nil {
		return nil, errors.New("sim: Config.Oracle is nil")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: Horizon %d must be positive", cfg.Horizon)
	}
	pattern := cfg.Pattern
	if pattern == nil {
		pattern = model.MustPattern(cfg.N)
	}
	if pattern.N() != cfg.N {
		return nil, fmt.Errorf("sim: pattern over n=%d but Config.N=%d", pattern.N(), cfg.N)
	}
	policy := cfg.Policy
	if policy == nil {
		policy = &FairPolicy{}
	}

	if rc.rng == nil {
		rc.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		rc.rng.Seed(cfg.Seed)
	}
	r := &rc.run
	aliveList := r.aliveList // keep the recycled capacity
	*r = Run{
		cfg:       cfg,
		rc:        rc,
		rng:       rc.rng,
		pattern:   pattern,
		trace:     rc.reset(cfg, pattern),
		nextMsg:   1,
		aliveList: aliveList[:0],
	}
	r.sifter, _ = policy.(DropSifter)
	r.inSet, _ = policy.(setPolicy)
	r.steady, _ = cfg.Oracle.(fd.Steady)
	for p := 1; p <= cfg.N; p++ {
		rc.procs[p] = cfg.Automaton.Spawn(model.ProcessID(p), cfg.N)
	}

	// The alive cache is rebuilt only when a crash takes effect; the
	// pattern hook catches crashes injected mid-run by AfterStep
	// adversaries. The hook is an engine implementation detail, so it
	// is removed again however the run ends.
	pattern.SetCrashHook(func(_ model.ProcessID, t model.Time) {
		if t < r.nextCrash {
			r.nextCrash = t
		}
		// A new crash voids every Steady stability horizon: outputs may
		// now change earlier than the oracle promised for the old F.
		if r.steady != nil {
			for p := range rc.fdUntil {
				rc.fdUntil[p] = -1
			}
		}
	})
	defer pattern.SetCrashHook(nil)
	r.rebuildAlive(1)
	quiesce := cfg.Quiesce && r.steady != nil && cfg.AfterStep == nil

	for t := model.Time(1); t <= cfg.Horizon; t++ {
		r.now = t
		r.refreshAlive(t)
		if len(r.aliveList) == 0 {
			// The refresh above cached the (empty) alive set of the
			// stop tick, one past the last event; restore the trace's
			// documented AliveNow contract of Ω \ F(MaxTime).
			r.trace.setAlive(r.pattern.AliveAt(r.trace.MaxTime()))
			r.finish(StopAllCrashed)
			return r.trace, nil
		}

		var p model.ProcessID
		if r.inSet != nil {
			p = r.inSet.nextIn(r.aliveList, r.aliveSet, t, r.rng)
		} else {
			p = policy.NextProcess(r.aliveList, t, r.rng)
		}
		if !pattern.Alive(p, t) {
			return nil, fmt.Errorf("sim: policy scheduled crashed process %v at t=%d", p, t)
		}

		// (1) receive a message or λ. Under a lossy fault plan, first
		// purge the messages whose drop verdict is already sealed: they
		// can never be delivered, and leaving them in the queue would
		// make every later pick rescan a monotonically growing backlog.
		// Purged messages still count as undelivered (finish merges
		// them back), so the trace is byte-identical to a purge-free
		// engine's.
		q := &rc.pending[p]
		if r.sifter != nil && len(q.view()) > 0 {
			rc.dead = r.sifter.SiftDropped(q.view(), rc.dead[:0])
			if len(rc.dead) > 0 {
				q.purge(rc.dead)
				rc.dropped[p] = append(rc.dropped[p], rc.dead...)
			}
		}
		var msg *Message
		if idx := policy.PickMessage(p, q.view(), t, r.rng); idx >= 0 {
			if idx >= len(q.view()) {
				return nil, fmt.Errorf("sim: policy picked message %d of %d for %v", idx, len(q.view()), p)
			}
			msg = q.remove(idx)
		}

		// (2) query the failure-detector module. Steady oracles declare
		// how long their output is guaranteed unchanged, so the real
		// query runs only at change-points; in between the cached output
		// is replayed (byte-identical by the Steady contract, which the
		// golden digests pin).
		var susp model.ProcessSet
		if r.steady != nil && t <= rc.fdUntil[p] {
			susp = rc.fdOut[p]
		} else {
			susp = cfg.Oracle.Output(pattern, p, t)
			if r.steady != nil {
				rc.fdOut[p] = susp
				rc.fdUntil[p] = r.steady.StableUntil(pattern, p, t)
			}
		}

		// (3) state transition and sends.
		actions := rc.procs[p].Step(msg, susp, t)

		// The step is written where it is kept: the next trace slot and
		// one block of arena Messages, field by field. A composite literal
		// here is built on the stack and copied in, which cost about a
		// quarter of a sim-sweep-n64 seed. Neither the trace slot nor the
		// arena block is cleared between runs of a RunContext, so every
		// field must be written: one left out keeps the previous run's
		// value, where a literal used to zero it.
		tr := r.trace
		ev := tr.nextEvent()
		ev.Index = len(tr.Events) - 1
		ev.P = p
		ev.T = t
		ev.Msg = msg
		ev.FD = susp
		ev.PrevSameProc = rc.lastEv[p]
		if len(actions.Events) > 0 {
			ev.Events = rc.copyEvents(actions.Events)
		} else {
			ev.Events = nil
		}
		if k := len(actions.Sends); k > 0 {
			msgs, sends := rc.allocMsgs(k), rc.allocSends(k)
			for i, s := range actions.Sends {
				if s.To < 1 || int(s.To) > cfg.N {
					return nil, fmt.Errorf("sim: %v sent to out-of-range destination %v", p, s.To)
				}
				m := &msgs[i]
				m.ID = r.nextMsg
				m.From = p
				m.To = s.To
				m.SentAt = t
				m.SentBy = ev.Index
				m.Payload = s.Payload
				r.nextMsg++
				sends[i] = m
				rc.pending[s.To].push(m)
			}
			ev.Sends = sends
		} else {
			ev.Sends = nil
		}
		tr.indexEvent(ev)
		rc.lastEv[p] = ev.Index

		if cfg.AfterStep != nil {
			cfg.AfterStep(r, ev)
			// An adversarial hook may have crashed processes at the
			// current tick; refresh so StopWhen sees the same alive
			// set a fresh pattern scan would report.
			r.refreshAlive(t)
		}
		if cfg.StopWhen != nil && cfg.StopWhen(r.trace) {
			r.finish(StopCondition)
			return r.trace, nil
		}
		if quiesce && msg == nil && len(ev.Sends) == 0 && len(ev.Events) == 0 && r.quiescent() {
			r.finish(StopQuiescent)
			return r.trace, nil
		}
	}
	r.finish(StopHorizon)
	return r.trace, nil
}

// quiescent reports that every fair continuation of the run from now
// on is empty λ steps: no crash is still to come, every alive process
// sees its detector output fixed to the horizon and declares a λ step
// under it idle, and no message to an alive process is pending. Any
// pending message counts, one held by a cut included; sealed drops
// leave a queue at its owner's next step, which sifts it before its
// pick, so they delay the stop by at most that step.
func (r *Run) quiescent() bool {
	if r.nextCrash != model.NoCrash {
		return false
	}
	rc := r.rc
	for _, q := range r.aliveList {
		if rc.fdUntil[q] < r.cfg.Horizon || len(rc.pending[q].view()) > 0 {
			return false
		}
		if qp, ok := rc.procs[q].(Quiescer); !ok || !qp.Quiescent(rc.fdOut[q]) {
			return false
		}
	}
	return true
}

// finish seals the trace with the final buffer contents. Messages
// purged at their dropped verdict are merged back in ID order per
// destination, so Undelivered reads exactly as it would had the
// backlog never been purged — the golden digests pin this.
func (r *Run) finish(reason StopReason) {
	r.trace.Stopped = reason
	for p := 1; p <= r.cfg.N; p++ {
		r.trace.Undelivered = appendMergedByID(r.trace.Undelivered, r.rc.dropped[p], r.rc.pending[p].view())
	}
}

// appendMergedByID appends the merge of two ID-sorted message lists to
// dst, keeping ID order.
func appendMergedByID(dst []*Message, a, b []*Message) []*Message {
	for len(a) > 0 && len(b) > 0 {
		if a[0].ID < b[0].ID {
			dst = append(dst, a[0])
			a = a[1:]
		} else {
			dst = append(dst, b[0])
			b = b[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}

// AllDecided returns a StopWhen predicate: every process alive at the
// current end of the trace has emitted a decide event for the given
// instance. Both sides of the comparison are O(1) cached sets, so the
// predicate adds constant work per step.
func AllDecided(instance int) func(*Trace) bool {
	return func(tr *Trace) bool {
		return tr.AliveNow().SubsetOf(tr.DecidedSet(instance))
	}
}

// CorrectDecided returns a StopWhen predicate: every process that is
// correct in the (current) pattern has decided in the given instance.
// Use with patterns whose crashes are fully scripted up front.
func CorrectDecided(instance int) func(*Trace) bool {
	return func(tr *Trace) bool {
		return tr.Pattern.Correct().SubsetOf(tr.DecidedSet(instance))
	}
}
