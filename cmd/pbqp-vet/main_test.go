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
	code := run([]string{fixtureRoot + "/costarith"}, &out)
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

// TestRunJSONOutput: -json decodes to complete, sorted findings, and a
// second identical run prints the same bytes.
func TestRunJSONOutput(t *testing.T) {
	args := []string{"-json", fixtureRoot + "/costarith"}
	var out bytes.Buffer
	code := run(args, &out)
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
	for i, d := range diags {
		if d.Analyzer != "costarith" || d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		if i > 0 {
			prev := diags[i-1]
			if prev.File > d.File || (prev.File == d.File && (prev.Line > d.Line || (prev.Line == d.Line && prev.Col > d.Col))) {
				t.Errorf("diagnostics out of order: %s:%d:%d after %s:%d:%d", d.File, d.Line, d.Col, prev.File, prev.Line, prev.Col)
			}
		}
	}
	var again bytes.Buffer
	run(args, &again)
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Error("-json output is not byte-stable across identical runs")
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
