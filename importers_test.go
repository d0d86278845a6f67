package pbqprl_test

import (
	"go/ast"
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

const module = "pbqprl"

// sourceFile is one parsed non-test file and its package's import path.
type sourceFile struct {
	pkg string
	f   *ast.File
}

// parseModule parses every non-test .go file under the module root
// (testdata, vendor, hidden and underscore-prefixed directories
// skipped) with mode. It type-checks nothing.
func parseModule(t *testing.T, mode parser.Mode) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
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
		f, err := parser.ParseFile(fset, p, nil, mode)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{path.Join(module, filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestEveryInternalPackageHasAnImporter fails on a package under
// internal/ that no non-test package of the module imports: the linker
// drops it from every binary, so only its own tests keep it alive. It
// reads import clauses only.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	internal := map[string]bool{} // internal/ packages found
	imported := map[string]bool{}
	for _, sf := range parseModule(t, parser.ImportsOnly) {
		if strings.HasPrefix(sf.pkg, module+"/internal/") {
			internal[sf.pkg] = true
		}
		for _, imp := range sf.f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			imported[ip] = true
		}
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

// testOnlyExports are the exported functions and methods of internal/
// that only tests call, kept because another package's tests need
// them, each named as package (relative to internal/), type, name.
var testOnlyExports = map[string]string{
	"failpoint.Disable":             "other packages' tests disarm the failpoints they armed",
	"failpoint.DisableAll":          "other packages' tests disarm the failpoints they armed",
	"failpoint.Hits":                "the router's tests count how often a failpoint fired",
	"gcn.Scratch.LimitMemosForTest": "net's tests force the row memos to evict",
	"gcn.View.Frozen":               "selfplay's thaw tests check a thawed view is frozen",
	"ir.Program.Validate":           "llvmsuite's and regalloc's tests check their programs",
	"pbqp.Graph.AddEdgeCost":        "the builders' and solvers' tests build graphs one constraint at a time",
	"pbqp.Graph.Validate":           "graph tests of reduce, randgraph, solve and portfolio check invariants",
	"selfplay.EncodeSamples":        "gcn's reference tests decode real samples; ROADMAP item 2 decides the format",
	"selfplay.DecodeSamples":        "gcn's reference tests decode real samples; ROADMAP item 2 decides the format",
	"tensor.Mat.At":                 "the dense reference pass in gcn's tests and game's tests read entries",
	"tensor.Mat.Set":                "gcn's tests build matrices entry by entry",
	"tensor.Mat.MulVec":             "gcn's dense reference pass",
	"tensor.Mat.MulTVec":            "gcn's dense reference pass",
	"tensor.Mat.AddMulVec":          "gcn's dense reference pass and kernel tests",
}

// stdlibInvoked are method names the standard library calls through
// its own interfaces (fmt.Stringer, error, json.Marshaler,
// json.Unmarshaler), so no file of the module needs to name them.
var stdlibInvoked = map[string]bool{"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true}

// TestEveryExportHasAShippingCaller fails on an exported function, or
// exported method of an exported type, declared under internal/ whose
// name no non-test file of the module references outside its own
// declaration: only tests would keep it. A function counts as
// referenced by a selector through an import of its package or a bare
// identifier in its own package; a method, having no types to resolve
// its receiver, by a selector of its name on anything. The check is a
// floor: a method whose name another type's method shares passes. It
// also fails on a testOnlyExports entry that names no declaration.
func TestEveryExportHasAShippingCaller(t *testing.T) {
	files := parseModule(t, parser.SkipObjectResolution)
	pkgName := map[string]string{}
	for _, sf := range files {
		pkgName[sf.pkg] = sf.f.Name.Name
	}
	funcRefs := map[string]bool{}   // import path + "." + name
	methodRefs := map[string]bool{} // selector names
	for _, sf := range files {
		imports := map[string]string{} // local name -> module import path
		for _, imp := range sf.f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if name, ok := pkgName[ip]; ok {
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = ip
			}
		}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				// its name is the declaration, not a reference
				if x.Recv != nil {
					ast.Inspect(x.Recv, walk)
				}
				ast.Inspect(x.Type, walk)
				if x.Body != nil {
					ast.Inspect(x.Body, walk)
				}
				return false
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if ip, ok := imports[id.Name]; ok {
						funcRefs[ip+"."+x.Sel.Name] = true
						return false
					}
				}
				methodRefs[x.Sel.Name] = true
				ast.Inspect(x.X, walk)
				return false
			case *ast.Ident:
				funcRefs[sf.pkg+"."+x.Name] = true
			}
			return true
		}
		ast.Inspect(sf.f, walk)
	}

	declared := map[string]bool{}
	var unused []string
	for _, sf := range files {
		short, ok := strings.CutPrefix(sf.pkg, module+"/internal/")
		if !ok {
			continue
		}
		for _, d := range sf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name, referenced := short+"."+fd.Name.Name, funcRefs[sf.pkg+"."+fd.Name.Name]
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				id, ok := typ.(*ast.Ident)
				if !ok {
					t.Fatalf("%s.%s: cannot read its receiver type", short, fd.Name.Name)
				}
				if !id.IsExported() {
					continue // reached only through interfaces
				}
				name, referenced = short+"."+id.Name+"."+fd.Name.Name, methodRefs[fd.Name.Name] || stdlibInvoked[fd.Name.Name]
			}
			declared[name] = true
			if !referenced && testOnlyExports[name] == "" {
				unused = append(unused, name)
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no exported functions under internal/")
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s has no caller outside tests: delete it, move it into its package's export_test.go, or list it in testOnlyExports with the reason", name)
	}
	for name := range testOnlyExports {
		if !declared[name] {
			t.Errorf("testOnlyExports lists %s, which internal/ no longer declares", name)
		}
	}
}
