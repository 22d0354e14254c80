package main

import (
	"strings"
	"testing"
)

// TestPrepareFlags is the flag table: a command line fdorch would
// misread must be refused before anything spawns, with a one-line
// error, and the flags a -plan run honours must still pass with one.
func TestPrepareFlags(t *testing.T) {
	const smoke = "../../examples/scenarios/smoke16.json"
	const lossy = "../../examples/scenarios/lossy-consensus.json"
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = must pass
	}{
		{"defaults", nil, ""},
		{"built-in at n=200", []string{"-n", "200", "-validate"}, ""},
		{"fixed timeout", []string{"-est", "fixed", "-timeout", "1s", "-bound", "3s"}, ""},
		{"plan", []string{"-plan", smoke}, ""},
		{"plan with run flags", []string{"-plan", smoke, "-seed", "3", "-inproc", "-pairs", "-q",
			"-out", "r.json", "-if-changed", "-max-run", "1m", "-node-bin", "fdnode", "-validate"}, ""},

		{"plan with -n", []string{"-plan", smoke, "-n", "40"}, "-n shapes the built-in schedule"},
		{"plan with -bound", []string{"-plan", smoke, "-bound", "1ms", "-validate"}, "-bound shapes"},
		{"plan with -est", []string{"-plan", smoke, "-est", "fixed"}, "-est shapes"},
		{"plan with -interval", []string{"-plan", smoke, "-interval", "10ms"}, "-interval shapes"},
		{"plan with -warmup", []string{"-plan", smoke, "-warmup", "0s"}, "-warmup shapes"},
		{"positional argument", []string{"-n", "8", "extra", "-validate"}, `unexpected argument "extra"`},
		{"positional plan", []string{smoke}, "unexpected argument"},
		{"too small", []string{"-n", "4"}, "n ≥ 6"},
		{"unknown estimator", []string{"-est", "psychic"}, `unknown estimator "psychic"`},
		{"timeout without fixed", []string{"-est", "phi", "-timeout", "1s"}, "-est fixed only"},
		{"missing plan", []string{"-plan", "no-such-plan.json"}, "no-such-plan.json"},
		{"non-busy plan", []string{"-plan", lossy, "-inproc"}, `protocol "sflooding" runs in the simulator only`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, spec, err := prepare(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if spec == nil {
					t.Fatal("no spec")
				}
				return
			}
			if err == nil {
				t.Fatalf("args %q passed", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("error %q is not one line", err)
			}
		})
	}
}

// TestBuiltinFlagsReachTheSpec: each built-in-schedule flag lands in
// the spec it shapes.
func TestBuiltinFlagsReachTheSpec(t *testing.T) {
	_, spec, err := prepare([]string{"-n", "40", "-est", "fixed", "-interval", "20ms",
		"-fanout", "3", "-warmup", "2s", "-settle", "1s", "-bound", "1500ms"})
	if err != nil {
		t.Fatal(err)
	}
	live := spec.Live
	if spec.N != 40 || live.IntervalMs != 20 || live.Fanout != 3 || live.WarmupMs != 2000 ||
		live.SettleMs != 1000 || live.BoundMs != 1500 || live.Estimator.TimeoutMs != 240 {
		t.Errorf("spec n=%d live=%+v", spec.N, *live)
	}
}

// TestValidateRefusesNonBusyPlan: -validate runs the live cluster's
// protocol check, so a simulator-only plan exits 2 without spawning.
func TestValidateRefusesNonBusyPlan(t *testing.T) {
	if code := fdorch([]string{"-plan", "../../examples/scenarios/lossy-consensus.json", "-validate"}); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
