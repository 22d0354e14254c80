package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunArgs is the command-line table: a count no table can be built
// from, a stray argument or an unknown experiment is one line on
// stderr and exit code 2, with nothing printed on stdout.
func TestRunArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = must print a table
	}{
		{"one experiment", []string{"-only", "E1", "-seeds", "1"}, ""},
		{"lower case, sequential", []string{"-only", "e9", "-seeds", "1", "-parallel", "1"}, ""},

		{"zero seeds", []string{"-seeds", "0"}, "-seeds 0: want ≥ 1"},
		{"negative seeds", []string{"-seeds", "-2"}, "-seeds -2: want ≥ 1"},
		{"negative parallel", []string{"-parallel", "-3"}, "-parallel -3"},
		{"positional argument", []string{"-only", "E1", "E2"}, `unexpected argument "E2"`},
		{"unknown experiment", []string{"-only", "E42"}, `unknown experiment "E42"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if tc.wantErr == "" {
				if code != 0 || stderr.Len() > 0 {
					t.Fatalf("exit %d, stderr %q", code, stderr.String())
				}
				if !strings.Contains(stdout.String(), "verdict:") {
					t.Errorf("no table on stdout:\n%s", stdout.String())
				}
				return
			}
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stdout.Len() > 0 {
				t.Errorf("stdout %q, want nothing", stdout.String())
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.wantErr) {
				t.Errorf("stderr %q does not mention %q", msg, tc.wantErr)
			}
			if strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr %q is not one line", msg)
			}
		})
	}
}
