package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// unsafeAllowlist names the files (by module-relative path suffix) that
// may import unsafe. Each entry exists for one audited purpose; growing
// this list is a review event, not an edit:
//
//   - internal/nbwp/words.go: the zero-copy little-endian word view of
//     NBWP STEP payloads and of the HTTP binary ingest body, guarded by
//     the alignment check with loop fallback this pass also enforces.
//   - internal/analysis/testdata/src/unsafeaudit/guarded.go: the golden
//     fixture exercising the guard detector itself.
var unsafeAllowlist = []string{
	"internal/nbwp/words.go",
	"internal/analysis/testdata/src/unsafeaudit/guarded.go",
}

// UnsafeAudit returns the unsafeaudit analyzer. Two obligations:
//
//  1. unsafe may only be imported by allowlisted files, so every
//     reinterpretation in the repo is enumerable and reviewed.
//  2. Every unsafe.Slice view must follow the PR 4 pattern: constructed
//     only under an if whose condition checks pointer alignment
//     (... % unsafe.Alignof(...) == 0), inside a function that also
//     carries an explicit loop fallback for the misaligned case.
func UnsafeAudit() *Analyzer {
	return &Analyzer{
		Name: "unsafeaudit",
		Doc: "confines unsafe to allowlisted files and requires unsafe.Slice " +
			"views to sit behind an alignment check with a loop fallback",
		Run: runUnsafeAudit,
	}
}

func runUnsafeAudit(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		var unsafeImport *ast.ImportSpec
		for _, imp := range file.Imports {
			if imp.Path.Value == `"unsafe"` {
				unsafeImport = imp
				break
			}
		}
		if unsafeImport == nil {
			continue
		}
		filename := filepath.ToSlash(pass.Pkg.Fset.Position(file.Pos()).Filename)
		if !allowlistedUnsafe(filename) {
			pass.Reportf(unsafeImport.Pos(),
				"unsafe imported outside the audited allowlist; move the reinterpretation "+
					"into an allowlisted file or extend unsafeAllowlist under review")
			continue
		}
		checkUnsafeSliceGuards(pass, file)
	}
	return nil
}

func allowlistedUnsafe(filename string) bool {
	for _, suffix := range unsafeAllowlist {
		if strings.HasSuffix(filename, suffix) {
			return true
		}
	}
	return false
}

// checkUnsafeSliceGuards walks the file with an ancestor stack and
// verifies each unsafe.Slice call is (a) under an if condition that
// computes an alignment remainder with unsafe.Alignof and (b) inside a
// function containing a for-loop fallback.
func checkUnsafeSliceGuards(pass *Pass, file *ast.File) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || !isUnsafeSel(call.Fun, "Slice") {
			return true
		}
		guarded, fallback := false, false
		for _, anc := range stack {
			switch a := anc.(type) {
			case *ast.IfStmt:
				if condChecksAlignment(a.Cond) {
					guarded = true
				}
			case *ast.FuncDecl:
				if a.Body != nil && containsForLoop(a.Body) {
					fallback = true
				}
			}
		}
		switch {
		case !guarded:
			pass.Reportf(call.Pos(),
				"unsafe.Slice view is not guarded by an alignment check "+
					"(... %% unsafe.Alignof(...) == 0); see internal/nbwp/words.go for the pattern")
		case !fallback:
			pass.Reportf(call.Pos(),
				"unsafe.Slice view has no loop fallback for the misaligned case in the enclosing function")
		}
		return true
	})
}

// isUnsafeSel matches the selector unsafe.<name>.
func isUnsafeSel(fun ast.Expr, name string) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && id.Name == "unsafe"
}

// condChecksAlignment reports whether the condition contains a remainder
// expression involving unsafe.Alignof — the shape of the alignment guard.
func condChecksAlignment(cond ast.Expr) bool {
	hasRem, hasAlignof := false, false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.BinaryExpr:
			if node.Op.String() == "%" {
				hasRem = true
			}
		case *ast.CallExpr:
			if isUnsafeSel(node.Fun, "Alignof") {
				hasAlignof = true
			}
		}
		return true
	})
	return hasRem && hasAlignof
}

func containsForLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}
