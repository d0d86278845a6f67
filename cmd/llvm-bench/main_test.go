package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins each documented exit status of run, without -rl:
// one known program writes a row per classical allocator.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // text the diagnostics must contain
	}{
		{"known program", []string{"-program", "fib2"}, exitOK, ""},
		{"help", []string{"-help"}, exitOK, "-program"},
		{"unknown program", []string{"-program", "NOSUCH"}, exitUsage, `unknown program "NOSUCH"`},
		{"stray argument", []string{"fib2"}, exitUsage, `unexpected argument "fib2"`},
		{"bad flag", []string{"-nosuch"}, exitUsage, "-nosuch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s", tc.args, got, tc.want, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, tc.stderr)
			}
			if tc.want == exitUsage && stdout.Len() > 0 {
				t.Errorf("a usage error wrote %q to stdout", &stdout)
			}
			if tc.name != "known program" {
				return
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if len(lines) != 5 || !strings.HasPrefix(lines[0], "program ") {
				t.Fatalf("want a header and four rows, got\n%s", &stdout)
			}
			for i, alloc := range []string{"FAST", "BASIC", "GREEDY", "PBQP"} {
				if f := strings.Fields(lines[i+1]); len(f) != 5 || f[0] != "fib2" || f[1] != alloc {
					t.Errorf("row %d = %q, want fib2's %s row", i+1, lines[i+1], alloc)
				}
			}
		})
	}
}
