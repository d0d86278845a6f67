package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins each documented exit status of run that it
// reaches without serving: every usage error, a -net that fails to
// load, and a listen failure.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent.gob")
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // text the diagnostics must contain
	}{
		{"help", []string{"-help"}, exitOK, "-chain"},
		{"bad flag", []string{"-nosuch"}, exitUsage, "-nosuch"},
		{"bad value", []string{"-workers", "many"}, exitUsage, "many"},
		{"stray argument", []string{"stray"}, exitUsage, `unexpected argument "stray"`},
		{"unknown order", []string{"-order", "nosuch"}, exitUsage, `unknown order "nosuch"`},
		{"unknown chain stage", []string{"-chain", "liberty,nosuch"}, exitUsage, `unknown solver "nosuch"`},
		{"net fails to load", []string{"-net", missing}, exitError, "cannot load network " + missing},
		{"listen fails", []string{"-addr", "127.0.0.1:-1"}, exitError, "127.0.0.1:-1"},
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
