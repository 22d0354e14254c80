package sim

import (
	"testing"

	"realisticfd/internal/model"
)

// countingProc is an inner process that counts its steps and never
// decides.
type countingProc struct{ steps int }

func (p *countingProc) Step(*Message, model.ProcessSet, model.Time) Actions {
	p.steps++
	return Actions{}
}

// testEnv is the envelope of testWrapper: an instance number and the
// inner payload.
type testEnv struct {
	k     int
	inner any
}

type testWrapper struct{}

func (testWrapper) Instance(e *testEnv) int              { return e.k }
func (testWrapper) Open(e *testEnv) any                  { return e.inner }
func (testWrapper) Seal(e *testEnv, k int, inner any)    { *e = testEnv{k: k, inner: inner} }
func (testWrapper) Decided(int, ProtocolEvent, *Actions) {}
func (testWrapper) Retire(Process)                       {}

// TestMuxSkipsIdleLambdaSteps holds Mux.Step's skip to its contract: an
// instance is reached on a message, on Start, on its first step and
// whenever the detector output differs from its last step's; a repeated
// λ step under the same output reaches neither it nor InnerStepHook.
func TestMuxSkipsIdleLambdaSteps(t *testing.T) {
	hooked := 0
	InnerStepHook = func(Actions) { hooked++ }
	defer func() { InnerStepHook = nil }()

	var m Mux[testEnv]
	m.Init(testWrapper{}, testWrapper{}, 2)
	var acts Actions
	a, b := model.NewProcessSet(2), model.NewProcessSet(2, 3)
	msg := func(k int) *Message { return &Message{From: 2, To: 1, Payload: &testEnv{k: k, inner: "m"}} }
	p, q := new(countingProc), new(countingProc)
	m.Spawn(0, p)

	for i, c := range []struct {
		what string
		do   func()
		p, q int // the step counts of instances 0 and 1 after it
	}{
		{"first λ step of a spawned instance", func() { m.Step(0, nil, a, 1, &acts) }, 1, 0},
		{"λ step under the same output", func() { m.Step(0, nil, a, 2, &acts) }, 1, 0},
		{"λ step under a new output", func() { m.Step(0, nil, b, 3, &acts) }, 2, 0},
		{"λ step under that output again", func() { m.Step(0, nil, b, 4, &acts) }, 2, 0},
		{"a message under the same output", func() { m.Receive(msg(0), b, 5, &acts) }, 3, 0},
		{"λ step after the message", func() { m.Step(0, nil, b, 6, &acts) }, 3, 0},
		{"λ step back under the first output", func() { m.Step(0, nil, a, 7, &acts) }, 4, 0},
		{"a message for an instance not spawned", func() { m.Receive(msg(1), a, 8, &acts) }, 4, 0},
		{"Start under an unchanged output", func() { m.Start(1, q, a, 9, &acts) }, 4, 2},
		{"λ step of the started instance", func() { m.Step(1, nil, a, 10, &acts) }, 4, 2},
		{"λ step of the other instance", func() { m.Step(0, nil, a, 11, &acts) }, 4, 2},
	} {
		c.do()
		if p.steps != c.p || q.steps != c.q {
			t.Fatalf("step %d (%s): instances stepped %d and %d times, want %d and %d", i, c.what, p.steps, q.steps, c.p, c.q)
		}
		if hooked != p.steps+q.steps {
			t.Fatalf("step %d (%s): InnerStepHook ran %d times for %d inner steps", i, c.what, hooked, p.steps+q.steps)
		}
	}
}
