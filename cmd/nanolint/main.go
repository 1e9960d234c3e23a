// Command nanolint runs the physics-aware static-analysis rules of
// internal/analysis over packages of this module:
//
//	go run ./cmd/nanolint ./...
//	go run ./cmd/nanolint -rules magicconst,floateq ./internal/thermal
//	go run ./cmd/nanolint -sarif out.sarif ./...
//
// Patterns follow the go tool: "dir/..." walks recursively (skipping
// testdata), a plain pattern names one package directory. Packages are
// analyzed in parallel with deterministic output order. Findings print as
// "file:line:col: [rule] message"; the process exits 1 if any
// unsuppressed finding remains, 2 on usage or load errors.
//
// Nine rules ship: magicconst, droppederr, floateq, libpanic (AST/call-graph
// hygiene) and hotalloc, maporder, wallclock, unsafeaudit, ctxpoll
// (dataflow-aware determinism and hot-path invariants). Run -list for the
// one-line summaries.
//
// A finding is suppressed by the directive
//
//	//nanolint:ignore <rule>[,<rule>...] <reason>
//
// at the end of the offending line or on its own line directly above it.
// The reason is mandatory; directives without one are themselves findings,
// as are directives that no longer suppress anything (unused-suppression).
// The directive is the only way to accept a finding.
//
// For CI, -sarif FILE writes a SARIF 2.1.0 log for code-scanning upload.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nanobus/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("nanolint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	rules := fs.String("rules", "", "comma-separated rule subset to run (default: all rules)")
	showSuppressed := fs.Bool("show-suppressed", false, "also print suppressed findings with their justification")
	list := fs.Bool("list", false, "list the available rules and exit")
	sarifPath := fs.String("sarif", "", "write a SARIF 2.1.0 log to this file")
	workers := fs.Int("workers", 0, "package-analysis parallelism (0 = GOMAXPROCS)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nanolint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, az := range analysis.All() {
			fmt.Fprintf(os.Stdout, "%-12s %s\n", az.Name, az.Doc)
		}
		return 0
	}

	azs := analysis.All()
	if *rules != "" {
		var err error
		azs, err = analysis.ByName(strings.Split(*rules, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	dirs, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs := make([]*analysis.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	findings, err := analysis.RunParallel(pkgs, azs, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		werr := analysis.WriteSARIF(f, findings, azs, root)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "nanolint: writing %s: %v\n", *sarifPath, werr)
			return 2
		}
	}

	fresh := analysis.Unsuppressed(findings)
	if *showSuppressed {
		for _, f := range findings {
			if f.Suppressed {
				fmt.Fprintf(os.Stdout, "%s (suppressed: %s)\n", finding(root, f), f.SuppressReason)
			}
		}
	}
	for _, f := range fresh {
		fmt.Fprintln(os.Stdout, finding(root, f))
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stdout, "nanolint: %d finding(s) in %d package(s)\n", len(fresh), len(pkgs))
		return 1
	}
	return 0
}

// finding renders one finding with a module-relative path.
func finding(root string, f analysis.Finding) string {
	name := f.Pos.Filename
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = rel
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s", name, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}
