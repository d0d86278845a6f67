package pbqprl_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasAnImporter fails on a package under
// internal/ that no non-test package of the module imports: the linker
// drops it from every binary, so only its own tests keep it alive. It
// reads the import clauses of every non-test file under the module
// root (testdata, vendor, hidden and underscore-prefixed directories
// skipped) and type-checks nothing.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	const module = "pbqprl"
	fset := token.NewFileSet()
	internal := map[string]bool{} // internal/ packages found
	imported := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		if pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p))); strings.HasPrefix(pkg, module+"/internal/") {
			internal[pkg] = true
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			imported[ip] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no packages under internal/")
	}
	var orphans []string
	for pkg := range internal {
		if !imported[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s is imported by no non-test package of the module", pkg)
	}
}
