package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

func TestEventKindString(t *testing.T) {
	t.Parallel()
	cases := map[EventKind]string{
		KindDecide:     "decide",
		KindDeliver:    "deliver",
		KindFDOutput:   "fd-output",
		KindViewChange: "view-change",
		EventKind(42):  "EventKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestStopReasonString(t *testing.T) {
	t.Parallel()
	cases := map[StopReason]string{
		StopHorizon:    "horizon",
		StopCondition:  "condition",
		StopQuiescent:  "quiescent",
		StopAllCrashed: "all-crashed",
		StopReason(42): "StopReason(42)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestTraceStringAndMessageString(t *testing.T) {
	t.Parallel()
	tr, err := Execute(Config{
		N: 4, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.String()
	for _, want := range []string{"events", "stopped", "pattern"} {
		if !strings.Contains(s, want) {
			t.Errorf("Trace.String() = %q missing %q", s, want)
		}
	}
	for _, ev := range tr.Events {
		for _, m := range ev.Sends {
			ms := m.String()
			if !strings.Contains(ms, "→") || !strings.Contains(ms, "m") {
				t.Fatalf("Message.String() = %q", ms)
			}
			break
		}
	}
}

func TestCausalPastOutOfRange(t *testing.T) {
	t.Parallel()
	tr := &Trace{N: 4}
	if got := tr.CausalPast(-1); got != nil {
		t.Errorf("CausalPast(-1) = %v", got)
	}
	if got := tr.CausalPast(0); got != nil {
		t.Errorf("CausalPast(0) on empty trace = %v", got)
	}
}

func TestUndeliveredToEmptyTrace(t *testing.T) {
	t.Parallel()
	tr := &Trace{N: 4}
	for p := model.ProcessID(1); p <= 4; p++ {
		if got := tr.UndeliveredTo(p); got != nil {
			t.Errorf("UndeliveredTo(%v) on empty trace = %v, want nil", p, got)
		}
	}
}

func TestUndeliveredToSingleEventTrace(t *testing.T) {
	t.Parallel()
	// One tick: p1 broadcasts to everyone, nothing is delivered.
	tr, err := Execute(Config{
		N: 4, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{}, Horizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(tr.Events))
	}
	if len(tr.Undelivered) != 4 {
		t.Fatalf("undelivered = %d, want the full broadcast (4)", len(tr.Undelivered))
	}
	for p := model.ProcessID(1); p <= 4; p++ {
		ms := tr.UndeliveredTo(p)
		if len(ms) != 1 {
			t.Fatalf("UndeliveredTo(%v) = %d messages, want 1", p, len(ms))
		}
		if ms[0].To != p {
			t.Fatalf("UndeliveredTo(%v) returned message to %v", p, ms[0].To)
		}
	}
	if got := tr.UndeliveredTo(model.ProcessID(9)); got != nil {
		t.Errorf("UndeliveredTo(out-of-range) = %v, want nil", got)
	}
}

func TestContributorsSingleEventTrace(t *testing.T) {
	t.Parallel()
	// A single λ step has an empty causal past beyond itself: the
	// contributor set is exactly the stepping process.
	tr, err := Execute(Config{
		N: 4, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{}, Horizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	contr := tr.Contributors(0)
	if want := model.NewProcessSet(tr.Events[0].P); !contr.Equal(want) {
		t.Fatalf("Contributors(0) = %v, want %v", contr, want)
	}
	if past := tr.CausalPast(0); len(past) != 1 || past[0] != 0 {
		t.Fatalf("CausalPast(0) = %v, want [0]", past)
	}
}

func TestDecisionsFiltersInstance(t *testing.T) {
	t.Parallel()
	tr, err := Execute(Config{
		N: 4, Automaton: multiInstanceDecider{}, Oracle: fd.Perfect{}, Horizon: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Decisions(0)); got != 4 {
		t.Errorf("instance-0 decisions = %d, want 4", got)
	}
	if got := len(tr.Decisions(1)); got != 4 {
		t.Errorf("instance-1 decisions = %d, want 4", got)
	}
	if got := len(tr.Decisions(AnyInstance)); got != 8 {
		t.Errorf("all decisions = %d, want 8", got)
	}
	if got := len(tr.Decisions(7)); got != 0 {
		t.Errorf("instance-7 decisions = %d, want 0", got)
	}
}

// multiInstanceDecider decides instance 0 and 1 on its first step.
type multiInstanceDecider struct{}

type midProc struct{ done bool }

func (multiInstanceDecider) Spawn(model.ProcessID, int) Process { return &midProc{} }

func (p *midProc) Step(*Message, model.ProcessSet, model.Time) Actions {
	if p.done {
		return Actions{}
	}
	p.done = true
	return Actions{Events: []ProtocolEvent{
		{Kind: KindDecide, Instance: 0, Value: "a"},
		{Kind: KindDecide, Instance: 1, Value: "b"},
	}}
}

// TestEngineRejectsBadPolicyPick: an out-of-range message pick is an
// error, also under lossy links, where the engine checks the pick
// against the messages it let through before mapping it back.
func TestEngineRejectsBadPolicyPick(t *testing.T) {
	t.Parallel()
	for _, faults := range []*LinkFaults{nil, {DropSteps: []RateStep{{Pct: 30}}}} {
		_, err := Execute(Config{
			N: 4, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{},
			Horizon: 50, Policy: &badPickPolicy{}, Faults: faults,
		})
		if err == nil {
			t.Fatalf("out-of-range message pick accepted under %v", faults)
		}
	}
}

// badPickPolicy returns an out-of-range message index once traffic
// exists.
type badPickPolicy struct{ fair FairPolicy }

func (bp *badPickPolicy) NextProcess(alive []model.ProcessID, t model.Time, r *rand.Rand) model.ProcessID {
	return bp.fair.NextProcess(alive, t, r)
}

func (bp *badPickPolicy) PickMessage(_ model.ProcessID, pending []*Message, _ model.Time, _ *rand.Rand) int {
	return len(pending) + 3 // deliberately out of range
}

// causalWalkRun is the busy run the causal-walk tests walk.
func causalWalkRun(t *testing.T) *Trace {
	t.Helper()
	tr, err := Execute(Config{
		N: 8, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{},
		Horizon: 600, Seed: 5, Policy: &RandomFairPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCausalWalkMatchesReference checks CausalPast and Contributors on
// every event of a busy run against a fresh depth-first search, so the
// generation marks the walks share never leak from one walk into the
// next.
func TestCausalWalkMatchesReference(t *testing.T) {
	t.Parallel()
	tr := causalWalkRun(t)
	for i := range tr.Events {
		seen := make([]bool, len(tr.Events))
		stack := []int{i}
		seen[i] = true
		want := model.NewProcessSet(tr.Events[i].P)
		for len(stack) > 0 {
			ev := &tr.Events[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			next := []int{ev.PrevSameProc, -1}
			if ev.Msg != nil {
				want = want.Add(ev.Msg.From)
				next[1] = ev.Msg.SentBy
			}
			for _, k := range next {
				if k >= 0 && !seen[k] {
					seen[k] = true
					stack = append(stack, k)
				}
			}
		}
		var past []int
		for j, ok := range seen {
			if ok {
				past = append(past, j)
			}
		}
		if got := tr.CausalPast(i); !slices.Equal(got, past) {
			t.Fatalf("CausalPast(%d) = %v, want %v", i, got, past)
		}
		if got := tr.Contributors(i); !got.Equal(want) {
			t.Fatalf("Contributors(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestContributorsAllocBudgets holds Contributors to zero allocations
// once its walk marks are warm. It is not parallel: AllocsPerRun counts
// every allocation in the process, the other tests' included.
func TestContributorsAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budget holds for the build the benchmark measures")
	}
	tr := causalWalkRun(t)
	last := len(tr.Events) - 1
	if allocs := testing.AllocsPerRun(10, func() { tr.Contributors(last) }); allocs != 0 {
		t.Errorf("Contributors allocates %.0f times per call", allocs)
	}
}
