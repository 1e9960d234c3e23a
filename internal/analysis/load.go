package analysis

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package, the unit handed to
// analyzers. Test files (*_test.go) are excluded: the rules target library
// and command code, and test expectations legitimately re-type constants
// and compare exact floats.
type Package struct {
	// ImportPath is the full import path, e.g. "nanobus/internal/energy".
	ImportPath string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset positions all files of this package.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's resolution results.
	Info *types.Info

	// cg is the lazily built, cached intra-package call graph shared by
	// reachability-based passes; see Package.CallGraph.
	cgOnce sync.Once
	cg     *CallGraph
}

// PathTail returns the last element of the package's import path.
func (p *Package) PathTail() string {
	if i := strings.LastIndexByte(p.ImportPath, '/'); i >= 0 {
		return p.ImportPath[i+1:]
	}
	return p.ImportPath
}

// Loader parses and type-checks packages of a single module using only the
// standard library: module-local imports are resolved from source under the
// module root, and standard-library imports are type-checked from GOROOT
// source (importer.ForCompiler "source"), so no export data or network
// access is needed.
type Loader struct {
	fset       *token.FileSet
	modulePath string
	moduleDir  string
	std        types.Importer
	pkgs       map[string]*Package
	loading    map[string]bool
}

// NewLoader returns a loader rooted at the module directory containing
// go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		modulePath: modPath,
		moduleDir:  abs,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// ModulePath returns the module path declared in dir/go.mod.
func ModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", dir)
}

// LoadDir loads the package rooted at dir, which may be absolute or
// relative to the module directory.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.moduleDir, dir)
	}
	abs = filepath.Clean(abs)
	rel, err := filepath.Rel(l.moduleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.moduleDir)
	}
	path := l.modulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, &NoGoFilesError{Dir: dir, ImportPath: path}
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer: module-local paths load from source
// under the module root, everything else falls back to the GOROOT source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		dir := l.moduleDir
		if rel != "" {
			dir = filepath.Join(l.moduleDir, filepath.FromSlash(rel))
		}
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// ErrNoGoFiles marks a directory that contains no analyzable Go sources.
// Wrap-test with errors.Is; the concrete *NoGoFilesError carries the
// directory and import path.
var ErrNoGoFiles = errors.New("no Go files")

// NoGoFilesError reports a package directory with zero non-test Go files
// under the default build configuration. It is returned by LoadDir (and
// the importer) instead of a bare parse error so drivers can tell "you
// named an empty directory" apart from genuinely broken source: test
// files, hidden files, and files excluded by //go:build constraints do
// not count.
type NoGoFilesError struct {
	// Dir is the absolute directory that was loaded.
	Dir string
	// ImportPath is the import path the directory resolves to.
	ImportPath string
}

func (e *NoGoFilesError) Error() string {
	return fmt.Sprintf("analysis: package %s (%s) has no non-test Go files under the default build configuration; "+
		"nanolint analyzes library and command sources only — name a directory containing at least one non-test .go file",
		e.ImportPath, e.Dir)
}

// Unwrap lets errors.Is(err, ErrNoGoFiles) identify the condition.
func (e *NoGoFilesError) Unwrap() error { return ErrNoGoFiles }

// goFilesIn lists the non-test Go files of dir that are included under
// the default build configuration, sorted. Files excluded by a
// //go:build constraint must be skipped exactly as `go build ./...` skips
// them: type-checking both variants of a gated package at once would
// report phantom redeclaration errors.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := buildTagOK(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// releaseTagRE matches go1.N release tags, which the go tool satisfies
// for every N up to the toolchain's own minor version. The linter always
// runs under the module's own toolchain, so accepting them all matches
// what it compiles.
var releaseTagRE = regexp.MustCompile(`^go1\.[0-9]+$`)

// defaultTag evaluates one build tag under the default configuration:
// the host GOOS/GOARCH, the gc compiler, the unix meta-tag, and release
// tags. Custom tags (race, integration, ...) are unset.
func defaultTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "solaris", "aix", "dragonfly":
			return true
		}
	}
	return releaseTagRE.MatchString(tag)
}

// buildTagOK reports whether the file's //go:build constraint (if any)
// is satisfied under defaultTag. Constraints must precede the package
// clause, so scanning stops at the first non-comment line.
func buildTagOK(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer func() {
		//nanolint:ignore droppederr the file was only read; nothing to recover from a close failure
		_ = f.Close()
	}()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if constraint.IsGoBuild(line) {
			expr, err := constraint.Parse(line)
			if err != nil {
				// Malformed constraint: include the file and let the
				// type-checker report it with position information.
				return true, nil
			}
			return expr.Eval(defaultTag), nil
		}
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "/*") {
			continue
		}
		break
	}
	return true, sc.Err()
}

// ExpandPatterns resolves go-style package patterns relative to the module
// directory: "dir/..." walks dir recursively collecting every directory
// that contains non-test Go files (skipping testdata, results, and hidden
// directories, like the go tool), while a plain pattern names one package
// directory — so testdata fixture packages can still be named explicitly.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" || root == "." {
			root = l.moduleDir
		} else if !filepath.IsAbs(root) {
			root = filepath.Join(l.moduleDir, root)
		}
		if !recursive {
			add(filepath.Clean(root))
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "results" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			files, err := goFilesIn(p)
			if err != nil {
				return err
			}
			if len(files) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: expanding %q: %w", pat, err)
		}
	}
	return dirs, nil
}
