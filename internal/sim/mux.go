package sim

import "realisticfd/internal/model"

// Mux runs numbered instances of an inner protocol inside one process of
// a wrapper automaton: the consensus sequences of core.Reduction and
// abcast.Atomic, the per-broadcast consensus of trb.Broadcast. It spawns
// instances and hands decided ones back to their Host, seals inner sends
// into the wrapper's envelopes (type E, carried by pointer), presents a
// received envelope's inner message to its instance, buffers traffic for
// instances not yet spawned, and stamps instance numbers on inner events.
// Instances are numbered 0..instances−1; the wrapper maps its ids on.
//
// Three lifetime rules make instances cheap. An inner step's Actions are
// consumed before any instance steps again, so a Host may give all its
// instances one Sends and one Events buffer. Inner messages are shown in
// one scratch Message, so an inner process must not keep in (Process).
// An envelope lives until the next Init, which hands its slab chunk out
// again: a wrapper re-initialised for a new run on the same RunContext
// may do so, because the last run's trace is then dead.
//
// One contract makes an idle instance free: every step of an inner
// process fires all the transitions its state, its received messages
// and the detector output enable, and none reads now. A λ step under
// the output of the instance's last step then can change nothing, and
// Step returns at once without reaching the instance or InnerStepHook.
// consensus.Host's S-flooding meets it: its progress loop runs until no
// guard holds, and its guards read only messages and suspicions.
type Mux[E any] struct {
	w     Wrapper[E]
	host  Host
	slots []muxSlot
	early []*Message // traffic for instances not yet spawned, arrival order
	envs  Slab[E]
	view  Message
}

type muxSlot struct {
	proc    Process          // nil until spawned, and again once retired
	last    model.ProcessSet // the detector output of proc's last step
	stepped bool             // proc has stepped, so last is its output
	done    bool             // retired: the instance decided
}

// Wrapper is the protocol a Mux serves: what its envelopes say, and what
// a decision means to it.
type Wrapper[E any] interface {
	// Instance returns the instance an envelope belongs to, or −1.
	Instance(env *E) int
	// Open returns an envelope's inner payload, right before the Mux
	// presents it to the instance.
	Open(env *E) any
	// Seal fills a fresh envelope for an inner send of instance k.
	Seal(env *E, k int, inner any)
	// Decided takes instance k's decide event, stamped with k; it must
	// not step an instance. The Mux retires k after the step.
	Decided(k int, ev ProtocolEvent, acts *Actions)
}

// Host takes back, for reuse, the inner processes a Mux retires.
type Host interface{ Retire(Process) }

// InnerStepHook, if set, is called with the Actions of every inner step
// once its Mux has consumed them. Tests set it to scribble over them: a
// wrapper or an inner process that read them later would diverge.
var InnerStepHook func(Actions)

// Init prepares the Mux for the given number of instances. A Mux that
// ran before keeps the capacity of its slots and buffer and rewinds its
// envelope slab, so the envelopes of its last run are handed out again;
// the instances still running go back to their Host.
func (m *Mux[E]) Init(w Wrapper[E], host Host, instances int) {
	for _, s := range m.slots {
		if s.proc != nil {
			m.host.Retire(s.proc)
		}
	}
	clear(m.early)
	m.w, m.host = w, host
	m.slots, m.early = append(m.slots[:0], make([]muxSlot, instances)...), m.early[:0]
	m.envs.Rewind()
}

// Running reports whether instance k is spawned and has not decided.
func (m *Mux[E]) Running(k int) bool { return m.slots[k].proc != nil }

// Spawn installs proc as instance k without stepping it.
func (m *Mux[E]) Spawn(k int, proc Process) { m.slots[k] = muxSlot{proc: proc} }

// Start spawns proc as instance k, steps it with λ for its opening
// sends, then presents the traffic buffered for k until it decides. It
// reports whether the instance decided.
func (m *Mux[E]) Start(k int, proc Process, susp model.ProcessSet, now model.Time, acts *Actions) bool {
	m.Spawn(k, proc)
	decided := m.Step(k, nil, susp, now, acts)
	kept := m.early[:0]
	for _, in := range m.early {
		switch env := in.Payload.(*E); {
		case m.w.Instance(env) != k:
			kept = append(kept, in)
		case !decided:
			decided = m.present(k, in, env, susp, now, acts)
		}
	}
	clear(m.early[len(kept):])
	m.early = kept
	return decided
}

// Receive routes a received envelope: to a running instance, which steps
// with it; into the buffer, for an instance not yet spawned; or nowhere,
// for a retired or unknown instance and for a foreign payload. It
// reports whether an instance stepped, and whether that decided it.
func (m *Mux[E]) Receive(in *Message, susp model.ProcessSet, now model.Time, acts *Actions) (stepped, decided bool) {
	env, ok := in.Payload.(*E)
	if !ok {
		return false, false
	}
	switch k := m.w.Instance(env); {
	case k < 0 || k >= len(m.slots) || m.slots[k].done:
	case m.slots[k].proc == nil:
		m.early = append(m.early, in)
	default:
		return true, m.present(k, in, env, susp, now, acts)
	}
	return false, false
}

func (m *Mux[E]) present(k int, in *Message, env *E, susp model.ProcessSet, now model.Time, acts *Actions) bool {
	m.view = *in
	m.view.Payload = m.w.Open(env)
	return m.Step(k, &m.view, susp, now, acts)
}

// Step steps running instance k with in (nil for λ). Its sends are
// sealed into acts.Sends, its events stamped with k and appended to
// acts.Events, except a decide, which goes to the wrapper and retires
// the instance. It reports whether the instance decided. A λ step under
// the output of k's last step is skipped (see Mux).
func (m *Mux[E]) Step(k int, in *Message, susp model.ProcessSet, now model.Time, acts *Actions) bool {
	s := &m.slots[k]
	if in == nil && s.stepped && s.last == susp {
		return false
	}
	s.last, s.stepped = susp, true
	a := s.proc.Step(in, susp, now)
	for _, snd := range a.Sends {
		env := m.envs.New()
		m.w.Seal(env, k, snd.Payload)
		acts.Sends = append(acts.Sends, Send{To: snd.To, Payload: env})
	}
	decided := false
	for _, ev := range a.Events {
		if ev.Instance = k; ev.Kind != KindDecide {
			acts.Events = append(acts.Events, ev)
		} else {
			decided = true
			m.w.Decided(k, ev, acts)
		}
	}
	if InnerStepHook != nil {
		InnerStepHook(a)
	}
	if decided {
		m.host.Retire(s.proc)
		*s = muxSlot{done: true}
	}
	return decided
}
