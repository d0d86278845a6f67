package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes one Loader across all tests in this package so
// the standard library is type-checked from source only once.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// TestGolden checks every fixture package against its `// want "substr"`
// annotations: each annotated line must produce exactly the findings it
// declares (substring match, order-insensitive), and unannotated lines
// must stay silent.
func TestGolden(t *testing.T) {
	cases := []struct {
		fixture   string
		analyzers []*Analyzer
	}{
		{"costarith", []*Analyzer{CostArith}},
		{"lockorder", []*Analyzer{LockOrder}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.fixture)
			pkg, err := testLoader(t).LoadDir(dir)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			diags, err := RunModule([]*Package{pkg}, tc.analyzers)
			if err != nil {
				t.Fatalf("run analyzers: %v", err)
			}
			for _, problem := range compareGolden(parseWants(t, dir), diags) {
				t.Error(problem)
			}
		})
	}
}

// compareGolden checks findings against `// want` annotations and
// returns one message per mismatch: an annotated line whose findings
// differ in count or content, or an unannotated line with findings. A
// want that matches nothing is a mismatch — that property is what
// keeps a silently dead analyzer from passing its fixture, and
// TestGoldenHarness locks it in.
func compareGolden(wants map[string][]string, diags []Diagnostic) []string {
	var problems []string
	got := map[string][]string{} // file:line -> messages
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)
		got[key] = append(got[key], d.Message)
	}
	for key, wantMsgs := range wants {
		msgs := got[key]
		if len(msgs) != len(wantMsgs) {
			problems = append(problems, fmt.Sprintf("%s: got %d finding(s) %q, want %d matching %q", key, len(msgs), msgs, len(wantMsgs), wantMsgs))
			continue
		}
		used := make([]bool, len(msgs))
	wantLoop:
		for _, w := range wantMsgs {
			for i, m := range msgs {
				if !used[i] && strings.Contains(m, w) {
					used[i] = true
					continue wantLoop
				}
			}
			problems = append(problems, fmt.Sprintf("%s: no finding contains %q; got %q", key, w, msgs))
		}
	}
	for key, msgs := range got {
		if _, ok := wants[key]; !ok {
			problems = append(problems, fmt.Sprintf("%s: unexpected finding(s) %q", key, msgs))
		}
	}
	sort.Strings(problems)
	return problems
}

// TestGoldenHarness guards the harness itself: a want annotation that
// no diagnostic matches MUST fail the comparison (a dead analyzer
// produces no findings, and its fixture would otherwise pass vacuously),
// and extra findings on unannotated lines must fail too.
func TestGoldenHarness(t *testing.T) {
	wants := map[string][]string{"fixture.go:3": {"some finding"}}
	if problems := compareGolden(wants, nil); len(problems) == 0 {
		t.Fatalf("unmatched want produced no failure; a dead analyzer would pass its fixture")
	}
	match := Diagnostic{File: "a/fixture.go", Line: 3, Message: "exactly some finding here"}
	if problems := compareGolden(wants, []Diagnostic{match}); len(problems) != 0 {
		t.Fatalf("matching finding reported problems: %q", problems)
	}
	wrong := Diagnostic{File: "a/fixture.go", Line: 3, Message: "a different message"}
	if problems := compareGolden(wants, []Diagnostic{wrong}); len(problems) == 0 {
		t.Fatalf("mismatched message produced no failure")
	}
	extra := Diagnostic{File: "a/fixture.go", Line: 9, Message: "stray"}
	if problems := compareGolden(wants, []Diagnostic{match, extra}); len(problems) != 1 {
		t.Fatalf("stray finding on unannotated line: got %q, want exactly one problem", problems)
	}
}

var wantRE = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)
var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// parseWants extracts `// want "substr" ["substr" ...]` annotations
// from every Go file in dir, keyed by "file.go:line".
func parseWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	wants := map[string][]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", e.Name(), i+1)
			for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
				wants[key] = append(wants[key], q[1])
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations", dir)
	}
	return wants
}

// TestCostArithSilentInsideCostPackage is the false-positive guard the
// fixture cannot express: the raw extended-real arithmetic inside
// internal/cost itself must not be flagged.
func TestCostArithSilentInsideCostPackage(t *testing.T) {
	pkg, err := testLoader(t).LoadDir("../cost")
	if err != nil {
		t.Fatalf("load internal/cost: %v", err)
	}
	diags, err := RunModule([]*Package{pkg}, []*Analyzer{CostArith})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("costarith flagged internal/cost itself: %v", diags)
	}
}
