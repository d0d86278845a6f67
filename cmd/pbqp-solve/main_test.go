package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins each documented exit status of run.
func TestExitCodes(t *testing.T) {
	infeasible := filepath.Join(t.TempDir(), "infeasible.pbqp")
	// Two vertices whose only edge forbids every color pair.
	if err := os.WriteFile(infeasible, []byte("pbqp 2 2\nv 0 0 0\nv 1 0 0\ne 0 1 inf inf inf inf\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const fig2 = "../../testdata/fig2.pbqp"
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stdout string // a line the report must contain
		stderr string // text the diagnostics must contain
	}{
		{"solved", []string{fig2}, exitOK, "cost:      11", ""},
		{"unknown solver", []string{"-solver", "nosuch", fig2}, exitError, "", `unknown solver "nosuch"`},
		{"unknown order", []string{"-order", "sideways", fig2}, exitError, "", `unknown order "sideways"`},
		{"missing file", []string{filepath.Join(t.TempDir(), "absent.pbqp")}, exitError, "", "absent.pbqp"},
		{"infeasible", []string{infeasible}, exitInfeasible, "feasible:  false", ""},
		{"truncated", []string{"-solver", "brute", "-timeout", "1ns", fig2}, exitTruncated, "truncated: true", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstdout: %s\nstderr: %s", tc.args, got, tc.want, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q lacks %q", &stdout, tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, tc.stderr)
			}
		})
	}
}
