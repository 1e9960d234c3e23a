package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSymbolSpellsLinkerNames(t *testing.T) {
	src := `package p
func F() {}
func G[T any]() {}
func (T) V() {}
func (*T) P() {}
func (*S[K]) Q() {}
func (M[K, V]) R() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, symbol("m/p", d.(*ast.FuncDecl)))
	}
	want := []string{"m/p.F", "m/p.G[...]", "m/p.T.V", "m/p.(*T).P", "m/p.(*S[...]).Q", "m/p.M[...].R"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("symbols = %q, want %q", got, want)
	}
}

func TestCompareFlagsUnlistedLinkedAndGoneRows(t *testing.T) {
	decls := []funcDecl{{sym: "m.A", pos: "a.go:1"}, {sym: "m.B", pos: "a.go:2"}, {sym: "m.C", pos: "a.go:3"}}
	linked := map[string]map[string]bool{"x": {"m.B": true}}
	unlinked := unlinkedFuncs(decls, linked)
	if len(unlinked) != 2 || unlinked[0].sym != "m.A" || unlinked[1].sym != "m.C" {
		t.Fatalf("unlinked = %v", unlinked)
	}
	if p := compare(decls, unlinked, map[string]string{"m.A": "fixture", "m.C": "generic"}); len(p) != 0 {
		t.Fatalf("complete allowlist: problems %q", p)
	}
	got := strings.Join(compare(decls, unlinked, map[string]string{"m.A": "fixture", "m.B": "fixture", "m.Z": "fixture"}), "\n")
	for _, want := range []string{"m.C is linked by no program", "m.B is linked now", "m.Z names no declared function"} {
		if !strings.Contains(got, want) {
			t.Errorf("problems %q lack %q", got, want)
		}
	}
}

func TestMainFunctionNeedsItsOwnBinary(t *testing.T) {
	decls := []funcDecl{{sym: "main.run", bin: "a"}}
	if u := unlinkedFuncs(decls, map[string]map[string]bool{"b": {"main.run": true}}); len(u) != 1 {
		t.Fatalf("main.run linked only by another binary counted as linked")
	}
}

func TestReadAllowlist(t *testing.T) {
	rows, err := readAllowlist("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("committed allowlist has no rows")
	}
	dir := t.TempDir()
	for _, bad := range []string{
		"m.A  unused  no such class\n",
		"m.A  fixture\n",
		"m.A  fixture  one\nm.A  generic  two\n",
	} {
		path := filepath.Join(dir, "bad.txt")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readAllowlist(path); err == nil {
			t.Errorf("readAllowlist(%q) accepted it", bad)
		}
	}
}
