package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins each documented exit status of run that it
// reaches without training a network: -help and every usage error.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // text the diagnostics must contain
	}{
		{"help", []string{"-help"}, exitOK, "-run"},
		{"bad flag", []string{"-nosuch"}, exitUsage, "-nosuch"},
		{"bad value", []string{"-v=maybe"}, exitUsage, "maybe"},
		{"stray argument", []string{"fig6"}, exitUsage, `unexpected argument "fig6"`},
		{"unknown experiment", []string{"-run", "nosuch"}, exitUsage, `unknown experiment "nosuch"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s", tc.args, got, tc.want, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, tc.stderr)
			}
			if stdout.Len() > 0 {
				t.Errorf("wrote %q to stdout", &stdout)
			}
		})
	}
}
