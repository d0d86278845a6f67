package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins each documented exit status of run on rows of
// EXPERIMENTS.md's E3 table: scholz allocates PRO1 but not PRO2, which
// liberty allocates.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stdout string // text the output must contain
		stderr string // text the diagnostics must contain
	}{
		{"scholz PRO1", []string{"-program", "PRO1", "-solver", "scholz"}, exitOK, "feasible=true ", ""},
		{"scholz PRO2", []string{"-program", "PRO2", "-solver", "scholz"}, exitInfeasible, "feasible=false", ""},
		{"liberty PRO2", []string{"-program", "PRO2", "-solver", "liberty", "-listing"}, exitOK, "assignment:", ""},
		{"help", []string{"-help"}, exitOK, "", "-program"},
		{"unknown program", []string{"-program", "NOSUCH"}, exitUsage, "", `unknown program "NOSUCH"`},
		{"unknown solver", []string{"-program", "PRO1", "-solver", "nosuch"}, exitUsage, "", `unknown solver "nosuch"`},
		{"stray argument", []string{"-solver", "scholz", "PRO1"}, exitUsage, "", `unexpected argument "PRO1"`},
		{"bad flag", []string{"-nosuch"}, exitUsage, "", "-nosuch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s", tc.args, got, tc.want, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q lacks %q", &stdout, tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, tc.stderr)
			}
			if tc.want == exitUsage && stdout.Len() > 0 {
				t.Errorf("a usage error wrote %q to stdout", &stdout)
			}
		})
	}
}
