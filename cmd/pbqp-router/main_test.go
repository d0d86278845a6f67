package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins each documented exit status of run that it
// reaches without routing: every usage error and a listen failure.
func TestExitCodes(t *testing.T) {
	const backend = "http://127.0.0.1:8723"
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // text the diagnostics must contain
	}{
		{"help", []string{"-help"}, exitOK, "-backends"},
		{"bad flag", []string{"-backends", backend, "-nosuch"}, exitUsage, "-nosuch"},
		{"bad value", []string{"-backends", backend, "-max-tries", "many"}, exitUsage, "many"},
		{"stray argument", []string{"-backends", backend, "stray"}, exitUsage, `unexpected argument "stray"`},
		{"no -backends", nil, exitUsage, "at least one backend is required"},
		{"empty -backends", []string{"-backends", " , "}, exitUsage, "at least one backend is required"},
		{"relative backend", []string{"-backends", "h1:8723"}, exitUsage, `backend "h1:8723" is not an absolute URL`},
		{"duplicate backend", []string{"-backends", backend + "," + backend}, exitUsage, "duplicate backend"},
		{"listen fails", []string{"-backends", backend, "-health-interval", "0", "-addr", "127.0.0.1:-1"}, exitError, "127.0.0.1:-1"},
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
