package experiments

import (
	"fmt"
	"testing"

	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
	"realisticfd/internal/sim/tracetest"
)

const goldenHostedPath = "testdata/golden_hosted_traces.txt"

// goldenHostedTraces replays the three protocols that host S-flooding
// instances in a sim.Mux — core.Reduction (E3's spec), trb.Broadcast
// (E4's) and abcast.Atomic — under E8-rotating's ◇S oracle, whose false
// suspicions before GST change a process's detector output from one
// step to the next, at crashes {0, 2} × seeds 0–5 on one reused
// RunContext. The protocol goldens run these wrappers under P only,
// whose output changes once per crash.
func goldenHostedTraces(t *testing.T) map[string]string {
	t.Helper()
	oracle := baseSpec("E8-rotating").Oracle
	abcastSpec := baseSpec("E3")
	abcastSpec.Name = "abcast"
	abcastSpec.Horizon = 3000
	abcastSpec.Protocol = scenario.ProtocolSpec{Kind: scenario.ProtocolAbcast, MaxInstances: 6}
	abcastSpec.Stop = scenario.StopSpec{}
	specs := []scenario.Spec{baseSpec("E3"), baseSpec("E4"), abcastSpec}

	got := make(map[string]string)
	rc := sim.NewRunContext()
	for _, s := range specs {
		s.Oracle = oracle
		for _, crashes := range []int{0, 2} {
			s.Crashes = crashSpecs(crashes, 30, 90)
			sc, err := s.Build()
			if err != nil {
				t.Fatalf("%s crashes=%d: %v", s.Name, crashes, err)
			}
			for seed := int64(0); seed < goldenProtocolSeeds; seed++ {
				name := fmt.Sprintf("%s/crash%d/seed%d", s.Name, crashes, seed)
				r := sc.RunIn(rc, seed)
				if r.Err != nil {
					t.Fatalf("%s: %v", name, r.Err)
				}
				got[name] = tracetest.TextHash(r.Trace)
			}
		}
	}
	return got
}

// TestGoldenHostedTraces holds the hosted protocols to byte-identical
// runs under a detector whose output keeps changing. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenHostedTraces -update
//
// only when a payload rendering or a schedule is *supposed* to change.
func TestGoldenHostedTraces(t *testing.T) {
	got := goldenHostedTraces(t)
	if *updateGolden {
		saveGolden(t, goldenHostedPath, "# Pinned sha256(Trace.WriteText) per run of the hosted protocols under E8-rotating's ◇S oracle; regenerate with: go test ./internal/experiments -run TestGoldenHostedTraces -update\n", got)
		return
	}
	want := loadGolden(t, goldenHostedPath)
	if len(got) != len(want) {
		t.Errorf("grid has %d runs, golden table has %d (regenerate with -update after reviewing)", len(got), len(want))
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned hash (new case? regenerate with -update)", name)
		} else if d != w {
			t.Errorf("%s: text hash %s… != pinned %s… — a hosted protocol's schedule changed", name, d[:16], w[:16])
		}
	}
}
