package analysis

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes one loader (and hence one type-checked view of the
// module and the standard library) across all tests in this package.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(root)
})

func testLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

func TestLoaderLoadsModulePackage(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir("internal/units")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.ImportPath != "nanobus/internal/units" {
		t.Errorf("import path = %q", pkg.ImportPath)
	}
	if pkg.Types.Scope().Lookup("Eps0") == nil {
		t.Errorf("units.Eps0 not found in type-checked package")
	}
	if pkg.PathTail() != "units" {
		t.Errorf("PathTail = %q", pkg.PathTail())
	}
}

func TestLoaderResolvesInternalImports(t *testing.T) {
	l := testLoader(t)
	// itrs imports nanobus/internal/units and the stdlib (fmt, math, sort).
	pkg, err := l.LoadDir("internal/itrs")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.Types.Scope().Lookup("N130") == nil {
		t.Errorf("itrs.N130 not found")
	}
}

func TestExpandPatterns(t *testing.T) {
	l := testLoader(t)
	dirs, err := l.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	want := map[string]bool{
		l.moduleDir: true, // root package
		filepath.Join(l.moduleDir, "internal", "energy"): true,
		filepath.Join(l.moduleDir, "cmd", "nanobus"):     true,
	}
	got := map[string]bool{}
	for _, d := range dirs {
		got[d] = true
		if filepath.Base(filepath.Dir(d)) == "testdata" || filepath.Base(d) == "testdata" {
			t.Errorf("ExpandPatterns(./...) included testdata dir %s", d)
		}
	}
	for d := range want {
		if !got[d] {
			t.Errorf("ExpandPatterns(./...) missing %s", d)
		}
	}
	// Explicit non-recursive patterns may name testdata packages.
	dirs, err = l.ExpandPatterns([]string{"internal/units"})
	if err != nil || len(dirs) != 1 {
		t.Fatalf("ExpandPatterns(internal/units) = %v, %v", dirs, err)
	}
}

// TestLoadDirNoGoFiles checks the typed error for directories with zero
// non-test Go files: errors.Is-identifiable, and the message says what to
// do about it.
func TestLoadDirNoGoFiles(t *testing.T) {
	l := testLoader(t)
	// testdata itself holds only the src/ fixture tree, no Go files.
	_, err := l.LoadDir("internal/analysis/testdata")
	if err == nil {
		t.Fatal("LoadDir on a no-Go-files directory returned nil error")
	}
	if !errors.Is(err, ErrNoGoFiles) {
		t.Errorf("error does not unwrap to ErrNoGoFiles: %v", err)
	}
	var ngf *NoGoFilesError
	if !errors.As(err, &ngf) {
		t.Fatalf("error is not *NoGoFilesError: %v", err)
	}
	if ngf.ImportPath != "nanobus/internal/analysis/testdata" {
		t.Errorf("ImportPath = %q", ngf.ImportPath)
	}
	if ngf.Dir != filepath.Join(l.moduleDir, "internal", "analysis", "testdata") {
		t.Errorf("Dir = %q", ngf.Dir)
	}
	if !strings.Contains(err.Error(), "non-test .go file") {
		t.Errorf("message is not actionable: %q", err)
	}
}

func TestLoaderHonorsBuildConstraints(t *testing.T) {
	l := testLoader(t)
	// The fixture ships two mutually exclusive build-tag variants; loading
	// both at once would report phantom redeclarations. Only the default
	// variant may be included.
	pkg, err := l.LoadDir("internal/analysis/testdata/src/buildtag")
	if err != nil {
		t.Fatalf("LoadDir(buildtag fixture): %v", err)
	}
	for _, f := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if name == "off.go" {
			t.Fatalf("loader included the tag-gated variant %s", name)
		}
	}
	if pkg.Types.Scope().Lookup("Hit") == nil {
		t.Fatal("default variant missing: no Hit in package scope")
	}
}
