// Package analysis is nanolint's physics-aware static-analysis framework.
// It is built only on the standard library (go/parser, go/ast, go/types) so
// the repository stays dependency-free and buildable offline.
//
// The framework loads and type-checks packages of this module (Loader),
// runs a set of rules (Analyzer) over each package (Pass) — in parallel
// across packages, with deterministic output — and applies
// `//nanolint:ignore <rule> <reason>` suppression directives to the
// resulting findings. Directives that suppress nothing are themselves
// reported (rule "unused-suppression"), so stale ignores cannot outlive
// the code they excused. The shipped rules guard the conventions the
// model's fidelity to the paper — and the repo's replay-determinism and
// zero-alloc contracts — rest on:
//
//   - magicconst: float literals in the model packages that duplicate a
//     named constant exported from internal/units or internal/itrs.
//   - droppederr: error results discarded via `_` or bare call statements.
//   - floateq: direct ==/!= between floating-point expressions.
//   - libpanic: panic(...) reachable from exported library APIs in
//     internal/ packages, which should return errors instead.
//   - hotalloc: heap allocations (make/new, closures, escaping composite
//     literals, string concatenation) inside functions annotated
//     //nanolint:hotpath — the compile-time complement to the
//     AllocsPerRun benchmark gates.
//   - maporder: range over a map feeding output, serialization, or float
//     accumulation in the replay-deterministic packages.
//   - wallclock: time.Now, the unseeded global math/rand source, and
//     multi-way select in the replay-deterministic packages.
//   - unsafeaudit: unsafe confined to allowlisted files, with unsafe.Slice
//     views guarded by an alignment check and loop fallback.
//   - ctxpoll: exported core run loops bounded by caller input must poll
//     (or forward) a context, per the PR 3 cancellation contract.
//
// Reachability-based passes share one cached per-package call graph
// (Package.CallGraph). See cmd/nanolint for the command-line driver and
// WriteSARIF for code-scanning output.
package analysis

import (
	"fmt"
	"go/token"
	"sort"

	"nanobus/internal/parallel"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pos is the violation's resolved file position.
	Pos token.Position
	// Rule names the analyzer that produced the finding.
	Rule string
	// Message describes the violation and how to fix it.
	Message string
	// Suppressed marks findings covered by a //nanolint:ignore directive.
	Suppressed bool
	// SuppressReason is the justification given in the directive.
	SuppressReason string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Pass hands one type-checked package to an analyzer's Run function.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// rule is the running analyzer's name, stamped on reports.
	rule   string
	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one nanolint rule.
type Analyzer struct {
	// Name is the rule name used in reports and suppression directives.
	Name string
	// Doc is a one-paragraph description of what the rule enforces.
	Doc string
	// Run analyzes one package, reporting findings through the pass.
	Run func(*Pass) error
}

// All returns the full nanolint rule set.
func All() []*Analyzer {
	return []*Analyzer{
		MagicConst(), DroppedErr(), FloatEq(), LibPanic(),
		HotAlloc(), MapOrder(), WallClock(), UnsafeAudit(), CtxPoll(),
	}
}

// ByName selects analyzers from All by name.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, az := range All() {
		byName[az.Name] = az
	}
	out := make([]*Analyzer, 0, len(names))
	for _, name := range names {
		az, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown rule %q", name)
		}
		out = append(out, az)
	}
	return out, nil
}

// RunParallel runs the analyzers over the packages on up to
// parallel.Workers(workers) goroutines — one package per job, since the
// type-checker's per-package Info maps are not shared — applies
// suppression directives, reports stale directives as unused-suppression
// findings, and returns the findings (suppressed ones included, marked)
// sorted by (file, line, column, rule). The result is identical for every
// worker count: findings land in a per-package slab and are merged in
// package order before the final sort, and the shared token.FileSet is
// safe for concurrent position lookups. Malformed directives are reported
// under the "nanolint" rule.
func RunParallel(pkgs []*Package, azs []*Analyzer, workers int) ([]Finding, error) {
	ranSet := make(map[string]bool, len(azs))
	for _, az := range azs {
		ranSet[az.Name] = true
	}
	perPkg := make([][]Finding, len(pkgs))
	err := parallel.ForEach(workers, len(pkgs), func(i int) error {
		fs, err := runPackage(pkgs[i], azs, ranSet)
		if err != nil {
			return err
		}
		perPkg[i] = fs
		return nil
	})
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}

// runPackage applies every analyzer to one package and resolves its
// suppressions, including the stale-directive check.
func runPackage(pkg *Package, azs []*Analyzer, ranSet map[string]bool) ([]Finding, error) {
	sup := collectSuppressions(pkg)
	findings := append([]Finding(nil), sup.malformed...)
	for _, az := range azs {
		pass := &Pass{
			Pkg:  pkg,
			rule: az.Name,
			report: func(f Finding) {
				if reason, ok := sup.match(f); ok {
					f.Suppressed = true
					f.SuppressReason = reason
				}
				findings = append(findings, f)
			},
		}
		if err := az.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", az.Name, pkg.ImportPath, err)
		}
	}
	return append(findings, sup.unused(ranSet)...), nil
}

// Unsuppressed filters findings down to the ones not covered by a
// directive.
func Unsuppressed(findings []Finding) []Finding {
	out := make([]Finding, 0, len(findings))
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}
