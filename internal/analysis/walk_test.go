package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPackageDirsSkipsNonPackageTrees(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a/a.go", "package a\n")
	write("a/a_test.go", "package a\n") // test-only files don't make a package dir
	write("b/only_test.go", "package b\n")
	write("c/testdata/src/fix/fix.go", "package fix\n")
	write("c/c.go", "package c\n")
	write("vendor/v/v.go", "package v\n")
	write(".hidden/h.go", "package h\n")
	write("_skip/s.go", "package s\n")
	write("d/notgo.txt", "hello\n")

	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	var rel []string
	for _, d := range dirs {
		r, err := filepath.Rel(root, d)
		if err != nil {
			t.Fatal(err)
		}
		rel = append(rel, filepath.ToSlash(r))
	}
	want := []string{"a", "c"}
	if strings.Join(rel, ",") != strings.Join(want, ",") {
		t.Errorf("PackageDirs = %v, want %v", rel, want)
	}
}

func TestLoaderRejectsDirOutsideModule(t *testing.T) {
	l := testLoader(t)
	if _, err := l.LoadDir(t.TempDir()); err == nil {
		t.Error("LoadDir outside the module succeeded, want error")
	}
}

func TestLoaderModulePath(t *testing.T) {
	l := testLoader(t)
	if l.ModulePath != "pbqprl" {
		t.Errorf("ModulePath = %q, want %q", l.ModulePath, "pbqprl")
	}
}

// TestRepoClean is the acceptance gate in test form: costarith must
// report nothing on the production tree. Like `pbqp-vet ./...`, it
// loads every package pbqp-vet's walk finds and vets each one. A
// finding cannot be waived: the tree must be clean.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module vet is slow; run without -short")
	}
	l := testLoader(t)
	dirs, err := PackageDirs(l.ModuleDir)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := Run(pkgs, CostArith)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestEveryInternalPackageHasAnImporter fails on a package under
// internal/ that no non-test package of the module imports: the linker
// drops it from every binary, so only its own tests keep it alive.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load is slow; run without -short")
	}
	l := testLoader(t)
	dirs, err := PackageDirs(l.ModuleDir)
	if err != nil {
		t.Fatal(err)
	}
	internal := l.ModulePath + "/internal/"
	imported := map[string]bool{}
	var want []string
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if strings.HasPrefix(pkg.Path, internal) {
			want = append(want, pkg.Path)
		}
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("found no packages under internal/")
	}
	for _, path := range want {
		if !imported[path] {
			t.Errorf("%s is imported by no non-test package of the module", path)
		}
	}
}
