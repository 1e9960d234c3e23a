package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathDirective opts a function into the hotalloc pass when it appears
// in the function's doc comment (optionally followed by a note).
const hotpathDirective = directivePrefix + hotpathVerb

// HotAlloc returns the hotalloc analyzer: allocation sites inside
// functions annotated //nanolint:hotpath. The annotated functions are the
// kernels whose zero-alloc steady state is pinned at runtime by
// testing.AllocsPerRun gates (core.Simulator.StepBatch, the server's
// appendStreamSample, nbwp.Words, the transition-memo probe); this pass is
// the compile-time complement, catching an allocation the moment it is
// written instead of when a benchmark regresses.
//
// Flagged inside an annotated function:
//
//   - make(...) and new(...)
//   - function literals (closures allocate their environment)
//   - &T{...} and composite literals passed to calls or returned
//     (escaping composites)
//   - string concatenation with +
//
// Amortized cold-path allocations (e.g. a memo miss installing an entry)
// are suppressed with a written justification.
func HotAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc: "flags heap allocations (make/new, closures, escaping composites, " +
			"string concatenation) in functions annotated //nanolint:hotpath",
		Run: runHotAlloc,
	}
}

// isHotpath reports whether the declaration's doc comment carries the
// //nanolint:hotpath annotation.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotBody(pass, info, fd)
		}
	}
	return nil
}

func checkHotBody(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
					pass.Reportf(node.Pos(),
						"%s allocates in hotpath function %s; preallocate outside the hot loop or justify with //nanolint:ignore hotalloc",
						b.Name(), name)
				}
			}
			// A composite literal handed to a call escapes to the callee.
			for _, arg := range node.Args {
				if _, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
					pass.Reportf(arg.Pos(),
						"composite literal escapes as a call argument in hotpath function %s", name)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(node.Pos(),
				"closure literal in hotpath function %s allocates its environment", name)
			return false // inner allocations belong to the closure finding
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					pass.Reportf(node.Pos(),
						"&composite literal allocates in hotpath function %s", name)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if _, ok := ast.Unparen(res).(*ast.CompositeLit); ok {
					pass.Reportf(res.Pos(),
						"composite literal escapes via return in hotpath function %s", name)
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD {
				if tv, ok := info.Types[node.X]; ok && isString(tv.Type) {
					// Constant folding is free; only flag runtime concatenation.
					if full, ok := info.Types[node]; !ok || full.Value == nil {
						pass.Reportf(node.Pos(),
							"string concatenation allocates in hotpath function %s; append into a reused buffer", name)
					}
				}
			}
		}
		return true
	})
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
