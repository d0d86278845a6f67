package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pbqprl/internal/analysis"
)

const fixtureRoot = "../../internal/analysis/testdata/src"

func TestRunFindsFixtureDiagnostics(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-only", "costarith", fixtureRoot + "/costarith"}, &out)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\noutput:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "raw + on cost.Cost") {
		t.Errorf("output missing expected finding:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "finding(s)") {
		t.Errorf("output missing findings trailer:\n%s", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-json", "-only", "lockorder", fixtureRoot + "/lockorder"}, &out)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\noutput:\n%s", code, out.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("JSON output decoded to zero findings")
	}
	for _, d := range diags {
		if d.Analyzer != "lockorder" || d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

func TestRunCleanPackage(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"../../internal/cost"}, &out); code != 0 {
		t.Fatalf("exit code = %d, want 0\noutput:\n%s", code, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-json", "../../internal/cost"}, &out); code != 0 {
		t.Fatalf("json exit code = %d, want 0", code)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("clean -json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Errorf("clean -json output decoded to %d findings", len(diags))
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &out); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestRunHelp: asking for the usage is not a usage error.
func TestRunHelp(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"help", []string{"-help"}},
	} {
		var out bytes.Buffer
		if code := run(tc.args, &out); code != exitOK {
			t.Errorf("%s: exit code = %d, want %d", tc.name, code, exitOK)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote to stdout: %q", tc.name, out.String())
		}
	}
}

// TestRunModuleWide checks that several packages analyzed together go
// through one module pass: findings from distinct fixture directories
// come back in one deterministically sorted report.
func TestRunModuleWide(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-json", "-only", "lockorder,costarith",
		fixtureRoot + "/lockorder", fixtureRoot + "/costarith"}, &out)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\noutput:\n%s", code, out.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	seen := map[string]bool{}
	for i, d := range diags {
		seen[d.Analyzer] = true
		if i > 0 {
			prev, cur := diags[i-1], d
			if prev.File > cur.File || (prev.File == cur.File && prev.Line > cur.Line) {
				t.Errorf("diagnostics out of order: %s:%d after %s:%d", cur.File, cur.Line, prev.File, prev.Line)
			}
		}
	}
	if !seen["lockorder"] || !seen["costarith"] {
		t.Errorf("expected findings from both packages, got analyzers %v", seen)
	}
	// Byte-stability: a second identical run must produce identical bytes.
	var again bytes.Buffer
	run([]string{"-json", "-only", "lockorder,costarith",
		fixtureRoot + "/lockorder", fixtureRoot + "/costarith"}, &again)
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Error("-json output is not byte-stable across identical runs")
	}
}
