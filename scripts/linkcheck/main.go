// Command linkcheck fails when the module declares a function that no
// program links and that allowlist.txt does not name, or when a row of
// allowlist.txt names a function that is now linked or no longer exists.
//
// The method:
//
//  1. Generate a throwaway main, in a temp dir under the module root,
//     that appends every exported function, method expression and
//     variable of nanobus and nanobus/client (read with go/types,
//     including the method sets of aliased types) to a package-level
//     []any, so the whole public API is linked.
//  2. Build it and every main under cmd/, scripts/ and examples/ with
//     -gcflags=all=-l: with inlining off, a function that is only ever
//     inlined still gets a symbol.
//  3. Collect the T/t symbols of those binaries with go tool nm, and
//     spell every function declared in a non-test file outside
//     perfbench/ and testdata/ (go/parser) as nm spells it. A function
//     is unlinked when no binary holds its symbol; a function of a main
//     package is looked up in its own binary only.
//
// Two blind spots follow from matching by symbol name:
//
//   - Generic functions and methods of generic types never match: their
//     symbols carry the instantiated type arguments. They are listed in
//     the allowlist with class "generic", and the gate cannot tell
//     whether one is still called.
//   - Two functions with the same name in two files of one package (a
//     build-tag twin) share one symbol, so the twin that is not built
//     hides behind the one that is.
//
// Each allowlist row is "<symbol>  <class>  <why>", where class is one
// of perfbench-frozen, generic, test oracle, chaos hook or fixture.
//
//	go run ./scripts/linkcheck
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"nanobus/internal/analysis"
)

// classes are the reasons a function may stay unlinked.
var classes = []string{"perfbench-frozen", "generic", "test oracle", "chaos hook", "fixture"}

// apiPackages are the public packages whose whole API the generated main
// links.
var apiPackages = []string{"", "client"}

// allowlistPath is the allowlist, relative to the module root.
const allowlistPath = "scripts/linkcheck/allowlist.txt"

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "linkcheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("linkcheck: PASS")
}

func run() error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		return err
	}
	allowed, err := readAllowlist(filepath.Join(root, allowlistPath))
	if err != nil {
		return err
	}
	decls, err := declaredFuncs(root)
	if err != nil {
		return err
	}
	linked, err := linkedSymbols(root)
	if err != nil {
		return err
	}
	unlinked := unlinkedFuncs(decls, linked)
	fmt.Printf("linkcheck: %d functions declared, %d unlinked, %d allowlisted\n",
		len(decls), len(unlinked), len(allowed))
	if problems := compare(decls, unlinked, allowed); len(problems) > 0 {
		return fmt.Errorf("%d problem(s):\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

// funcDecl is one declared function, spelt as its linker symbol.
type funcDecl struct {
	sym string
	// bin is the binary a main package's function must appear in; ""
	// means any binary.
	bin string
	pos string
}

// compare returns one line per unlinked function missing from the
// allowlist and per allowlisted row that is linked or gone.
func compare(decls, unlinked []funcDecl, allowed map[string]string) []string {
	var problems []string
	isUnlinked := map[string]bool{}
	for _, f := range unlinked {
		isUnlinked[f.sym] = true
		if _, ok := allowed[f.sym]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is linked by no program and not in the allowlist", f.pos, f.sym))
		}
	}
	declared := map[string]bool{}
	for _, f := range decls {
		declared[f.sym] = true
	}
	var rows []string
	for sym := range allowed {
		rows = append(rows, sym)
	}
	sort.Strings(rows)
	for _, sym := range rows {
		switch {
		case !declared[sym]:
			problems = append(problems, fmt.Sprintf("allowlist row %s names no declared function; delete the row", sym))
		case !isUnlinked[sym]:
			problems = append(problems, fmt.Sprintf("allowlist row %s is linked now; delete the row", sym))
		}
	}
	return problems
}

// readAllowlist parses "<symbol>  <class>  <why>" rows; blank lines and
// lines starting with # are skipped. It returns symbol -> class.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		class := ""
		for _, c := range classes {
			if strings.HasPrefix(rest, c+" ") {
				class = c
			}
		}
		why := strings.TrimSpace(strings.TrimPrefix(rest, class))
		switch {
		case class == "":
			return nil, fmt.Errorf("%s:%d: want one of the classes %q after the symbol", path, n, classes)
		case why == "":
			return nil, fmt.Errorf("%s:%d: row %s gives no reason", path, n, sym)
		case rows[sym] != "":
			return nil, fmt.Errorf("%s:%d: row %s listed twice", path, n, sym)
		}
		rows[sym] = class
	}
	return rows, sc.Err()
}

// declaredFuncs lists every function declared in a non-test Go file of
// the module outside perfbench/, testdata/ and directories the go tool
// ignores.
func declaredFuncs(root string) ([]funcDecl, error) {
	modPath, err := analysis.ModulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []funcDecl
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "perfbench" || name == "testdata" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		file, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel := filepath.Dir(file)
		pkg, bin := modPath, ""
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		if f.Name.Name == "main" {
			pkg, bin = "main", filepath.Base(filepath.Dir(path))
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			out = append(out, funcDecl{sym: symbol(pkg, fd), bin: bin, pos: fmt.Sprintf("%s:%d", file, fset.Position(fd.Pos()).Line)})
		}
		return nil
	})
	return out, err
}

// symbol spells fd as go tool nm does: pkg.F, pkg.T.M or pkg.(*T).M.
// Type parameters are spelt [...], which no symbol matches.
func symbol(pkg string, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Type.TypeParams != nil {
		name += "[...]"
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + name
	}
	typ, ptr := fd.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	recv := ""
	switch t := typ.(type) {
	case *ast.Ident:
		recv = t.Name
	case *ast.IndexExpr:
		recv = t.X.(*ast.Ident).Name + "[...]"
	case *ast.IndexListExpr:
		recv = t.X.(*ast.Ident).Name + "[...]"
	}
	if ptr {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + name
}

// unlinkedFuncs returns the functions whose symbol no binary (or, for a
// main package, not its own binary) holds.
func unlinkedFuncs(decls []funcDecl, linked map[string]map[string]bool) []funcDecl {
	var out []funcDecl
	for _, f := range decls {
		found := false
		if f.bin != "" {
			found = linked[f.bin][f.sym]
		} else {
			for _, syms := range linked {
				if syms[f.sym] {
					found = true
					break
				}
			}
		}
		if !found {
			out = append(out, f)
		}
	}
	return out
}

// linkedSymbols builds the API main and every main under cmd/, scripts/
// and examples/, and returns each binary's text symbols by binary name.
func linkedSymbols(root string) (map[string]map[string]bool, error) {
	gen, err := os.MkdirTemp(root, "_linkcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(gen)
	src, err := apiMain(root)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(gen, "main.go"), src, 0o644); err != nil {
		return nil, err
	}
	bins := filepath.Join(gen, "bin")
	if err := os.Mkdir(bins, 0o755); err != nil {
		return nil, err
	}
	list := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.Dir}}{{end}}`,
		"./cmd/...", "./scripts/...", "./examples/...")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	pkgs := append(strings.Fields(string(out)), gen)
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bins + "/"}, pkgs...)...)
	build.Dir, build.Stderr = root, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("go build: %w", err)
	}
	linked := map[string]map[string]bool{}
	for _, dir := range pkgs {
		name := filepath.Base(dir)
		nm := exec.Command("go", "tool", "nm", filepath.Join(bins, name))
		nm.Stderr = os.Stderr
		out, err := nm.Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", name, err)
		}
		syms := map[string]bool{}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				syms[f[2]] = true
			}
		}
		linked[name] = syms
	}
	return linked, nil
}

// apiMain returns the source of a main that links every exported
// function, method expression and variable of apiPackages.
func apiMain(root string) ([]byte, error) {
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	modPath, err := analysis.ModulePath(root)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.WriteString("// Code generated by scripts/linkcheck; DO NOT EDIT.\n\npackage main\n\nimport (\n")
	for i, p := range apiPackages {
		fmt.Fprintf(&b, "\tp%d %q\n", i, strings.TrimSuffix(modPath+"/"+p, "/"))
	}
	b.WriteString(")\n\nvar keep = []any{\n")
	for i, p := range apiPackages {
		pkg, err := loader.LoadDir(filepath.Join(root, p))
		if err != nil {
			return nil, err
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			q := fmt.Sprintf("p%d.%s", i, name)
			switch o := obj.(type) {
			case *types.Func:
				if o.Type().(*types.Signature).TypeParams() == nil {
					fmt.Fprintf(&b, "\t%s,\n", q)
				}
			case *types.Var:
				fmt.Fprintf(&b, "\t%s,\n", q)
			case *types.TypeName:
				named, ok := types.Unalias(o.Type()).(*types.Named)
				if !ok || named.TypeParams() != nil || types.IsInterface(named) {
					continue
				}
				ms := types.NewMethodSet(types.NewPointer(named))
				for j := 0; j < ms.Len(); j++ {
					if m := ms.At(j).Obj(); m.Exported() {
						fmt.Fprintf(&b, "\t(*%s).%s,\n", q, m.Name())
					}
				}
			}
		}
	}
	b.WriteString("}\n\nfunc main() { println(len(keep)) }\n")
	return b.Bytes(), nil
}
