package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbqprl/internal/pbqp"
)

// TestExitCodes pins each documented exit status of run.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // text the diagnostics must contain
	}{
		{"er", []string{"-n", "8"}, exitOK, ""},
		{"zeroinf", []string{"-kind", "zeroinf", "-n", "8"}, exitOK, "# hidden zero-cost solution"},
		{"dot", []string{"-n", "8", "-dot", filepath.Join(dir, "g.dot")}, exitOK, ""},
		{"help", []string{"-help"}, exitOK, "-kind"},
		{"unknown kind", []string{"-kind", "nosuch"}, exitUsage, `unknown kind "nosuch"`},
		{"bad flag", []string{"-nosuch"}, exitUsage, "-nosuch"},
		{"bad value", []string{"-n", "many"}, exitUsage, "many"},
		{"stray argument", []string{"-n", "8", "er"}, exitUsage, `unexpected argument "er"`},
		{"dot unwritable", []string{"-n", "8", "-dot", filepath.Join(dir, "absent", "g.dot")}, exitError, "absent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s", tc.args, got, tc.want, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, tc.stderr)
			}
		})
	}
	if dot, err := os.ReadFile(filepath.Join(dir, "g.dot")); err != nil || !bytes.HasPrefix(dot, []byte(`graph "pbqp"`)) {
		t.Errorf("-dot wrote %.40q, %v", dot, err)
	}
}

// TestOutputIsCanonical checks that what each kind writes reads back as
// a graph and writes again to the same bytes: pbqp-gen's output is
// already the canonical form the router keys its caches on.
func TestOutputIsCanonical(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "er", "-n", "20", "-m", "6", "-pinf", "0.1", "-seed", "3"},
		{"-kind", "zeroinf", "-n", "30", "-seed", "4"},
		{"-kind", "large", "-n", "200", "-m", "4", "-components", "2", "-seed", "5"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitOK {
			t.Fatalf("run(%q) = %d: %s", args, code, &stderr)
		}
		g, err := pbqp.Read(bytes.NewReader(stdout.Bytes()))
		if err != nil {
			t.Fatalf("%q: output rejected: %v", args, err)
		}
		var again bytes.Buffer
		if err := pbqp.Write(&again, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), stdout.Bytes()) {
			t.Fatalf("%q: Read→Write changed the %d bytes written", args, stdout.Len())
		}
	}
}
