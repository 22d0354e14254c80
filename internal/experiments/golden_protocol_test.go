package experiments

import (
	"fmt"
	"strings"
	"testing"

	"realisticfd/internal/abcast"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
	"realisticfd/internal/sim/tracetest"
)

const (
	goldenProtocolSeeds = 6
	goldenProtocolPath  = "testdata/golden_protocol_traces.txt"
)

// goldenProtocolTraces pins, in absolute terms, how the protocol
// payloads render into a trace: the sim goldens only run sim-internal
// test automata and TestScenarioFilesMatchStructs is relative (file vs
// struct on the same code). What is hashed per run is
// tracetest.TextHash — the SHA-256 of Trace.WriteText, which is what
// Trace.Digest() returned when the file was generated. Trace.Digest()
// itself is a different, versioned value (sim.DigestVersion), returned
// second and held to the pinned rendering rather than pinned: every run
// must survive the encode → decode → WriteText round trip, which is what
// makes the digest cover each payload's String(). Every embedded scenario
// is replayed at crashes {0, 2, 4} (process i+1 at 30+60·i) × seeds
// 0–5, plus one abcast.Atomic scenario, all on one reused RunContext —
// so S-flooding, rotating-coordinator, Marabout, P<, reduction
// (taggedMsg), TRB (trbCons) and abcast (acEnv) payloads all reach the
// hash, and stale arena state would too. A non-nil wrap replaces every
// scenario's automaton with wrap of it.
func goldenProtocolTraces(t *testing.T, wrap func(sim.Automaton) sim.Automaton) (textHashes, digests map[string]string) {
	t.Helper()
	entries, err := scenarioFiles.ReadDir("testdata/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	type namedScenario struct {
		name string
		sc   harness.Scenario
	}
	var cases []namedScenario
	for _, e := range entries {
		file := strings.TrimSuffix(e.Name(), ".json")
		for _, crashes := range []int{0, 2, 4} {
			s := baseSpec(file)
			s.Crashes = crashSpecs(crashes, 30, 90, 150, 210)
			sc, err := s.Build()
			if err != nil {
				t.Fatalf("%s crashes=%d: %v", file, crashes, err)
			}
			cases = append(cases, namedScenario{fmt.Sprintf("%s/crash%d", file, crashes), sc})
		}
	}
	cases = append(cases, namedScenario{"abcast/crash1", harness.Scenario{
		Name: "abcast", N: expN,
		Automaton: abcast.Atomic{
			ToBroadcast: map[model.ProcessID][]string{
				1: {"a0", "a1"}, 2: {"b0"}, 3: {"c0", "c1"}, 4: {"d0"}, 5: {"e0"},
			},
			MaxInstances: 6,
		},
		Oracle:  fd.Perfect{Delay: 2},
		Horizon: 3000,
		Pattern: func() *model.FailurePattern { return model.MustPattern(expN).MustCrash(2, 40) },
		Policy:  func() sim.Policy { return &sim.RandomFairPolicy{} },
	}})

	textHashes, digests = make(map[string]string), make(map[string]string)
	rc := sim.NewRunContext()
	for _, c := range cases {
		if wrap != nil {
			c.sc.Automaton = wrap(c.sc.Automaton)
		}
		for seed := int64(0); seed < goldenProtocolSeeds; seed++ {
			name := fmt.Sprintf("%s/seed%d", c.name, seed)
			r := c.sc.RunIn(rc, seed)
			if r.Err != nil {
				t.Fatalf("%s: %v", name, r.Err)
			}
			textHashes[name], digests[name] = tracetest.TextHash(r.Trace), r.Trace.Digest()
			if err := tracetest.RoundTrip(r.Trace); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	return textHashes, digests
}

// TestGoldenProtocolTraces holds protocol-layer refactors to
// byte-identical runs. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenProtocolTraces -update
//
// only when a payload rendering or a schedule is *supposed* to change,
// and say why in the PR. A new digest format is not such a change: the
// file pins text hashes, and over the whole grid digests must separate
// exactly the runs those separate.
func TestGoldenProtocolTraces(t *testing.T) {
	got, digests := goldenProtocolTraces(t, nil)
	if err := tracetest.SamePartition(got, digests); err != nil {
		t.Error(err)
	}

	if *updateGolden {
		saveGolden(t, goldenProtocolPath, "# Pinned sha256(Trace.WriteText) per run of the protocol scenarios (not Trace.Digest(), which is versioned); regenerate with: go test ./internal/experiments -run TestGoldenProtocolTraces -update\n", got)
		return
	}
	want := loadGolden(t, goldenProtocolPath)

	if len(got) != len(want) {
		t.Errorf("grid has %d runs, golden table has %d (regenerate with -update after reviewing)", len(got), len(want))
	}
	for name, d := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned hash (new case? regenerate with -update)", name)
			continue
		}
		if d != w {
			t.Errorf("%s: text hash %s… != pinned %s… — a protocol payload or schedule changed", name, d[:16], w[:16])
		}
	}
}

// scribbler wraps an automaton so that, before each Step, its process
// overwrites every element of the Sends and Events it returned at its
// previous step. Actions are valid only until the next Step on the same
// process (sim.Actions), so the run must not notice.
type scribbler struct{ sim.Automaton }

func (s scribbler) Spawn(self model.ProcessID, n int) sim.Process {
	return &scribbleProc{inner: s.Automaton.Spawn(self, n)}
}

type scribbleProc struct {
	inner sim.Process
	prev  sim.Actions
}

func (p *scribbleProc) Step(in *sim.Message, susp model.ProcessSet, now model.Time) sim.Actions {
	scribble(p.prev)
	p.prev = p.inner.Step(in, susp, now)
	return p.prev
}

func scribble(a sim.Actions) {
	for i := range a.Sends {
		a.Sends[i] = sim.Send{To: 1, Payload: "scribbled"}
	}
	for i := range a.Events {
		a.Events[i] = sim.ProtocolEvent{Kind: sim.KindViewChange, Instance: -1, Value: "scribbled"}
	}
}

// TestGoldenProtocolTracesSurviveScribbling replays the golden protocol
// grid with every process wrapped in a scribbler, and every inner step
// of a sim.Mux scribbled over once consumed, through sim.InnerStepHook:
// each run must still hash to its pinned text. It fails if the engine, a
// wrapper or an inner process reads a step's Actions after the next Step.
func TestGoldenProtocolTracesSurviveScribbling(t *testing.T) {
	sim.InnerStepHook = scribble
	defer func() { sim.InnerStepHook = nil }()
	got, _ := goldenProtocolTraces(t, func(a sim.Automaton) sim.Automaton { return scribbler{a} })
	want := loadGolden(t, goldenProtocolPath)
	for name, d := range got {
		if d != want[name] {
			t.Errorf("%s: text hash %s… != pinned %s… once Actions are scribbled over", name, d[:16], want[name][:min(16, len(want[name]))])
		}
	}
}
