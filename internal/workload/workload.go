// Package workload provides the eight synthetic SPEC CPU2000-like
// benchmarks that substitute for the paper's SHADE-traced eon, crafty,
// twolf, mcf (integer) and applu, swim, art, ammp (floating-point)
// programs — see DESIGN.md for the substitution argument. Each benchmark
// is a real NB32 assembly program executed instruction-by-instruction by
// the CPU simulator; what matters for the bus study is that the resulting
// instruction- and data-address streams have the right structure
// (sequential fetch runs broken by branches and calls, strided vs.
// pointer-chasing data accesses, realistic idle gaps on the DA bus, low
// consecutive-cycle Hamming distances).
//
// All programs initialise their data and then enter an infinite steady
// loop, so a trace window of any length can be drawn after a warm-up skip,
// like the paper's 500M-instruction skip.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"nanobus/internal/cpu"
	"nanobus/internal/isa"
	"nanobus/internal/trace"
)

// Class labels a benchmark integer or floating-point.
type Class string

// Benchmark classes.
const (
	Int Class = "int"
	FP  Class = "fp"
)

// Benchmark is one synthetic program.
type Benchmark struct {
	// Name matches the SPEC program it imitates ("eon", "swim", ...).
	Name string
	// Class is Int or FP.
	Class Class
	// Description summarises the imitated behaviour.
	Description string
	// WarmupCycles is the recommended warm-up skip: enough to clear the
	// program's data-initialisation phase and settle into the steady
	// loop (the paper skips the first 500M instructions; these scaled
	// skips serve the same purpose for the synthetic programs).
	WarmupCycles uint64
	// Extra marks benchmarks beyond the paper's eight (they are excluded
	// from All and the default experiment sets, but resolvable by name).
	Extra bool
	// Source is the NB32 assembly text.
	Source string
}

// progCache retains assembled programs keyed by source text, so sweeps
// that open a benchmark many times (every trace window, every session)
// pay the two-pass assembly once. Keying by source — not name — keeps
// hand-built Benchmark values with reused names correct.
var progCache sync.Map // source string -> *isa.Program

// Program assembles the benchmark. The returned program is cached and
// shared across calls: treat it as read-only (cpu.LoadProgram copies the
// segments into a fresh Memory, so normal execution never mutates it).
func (b Benchmark) Program() (*isa.Program, error) {
	if p, ok := progCache.Load(b.Source); ok {
		return p.(*isa.Program), nil
	}
	p, err := isa.Assemble(b.Source)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	// Concurrent assemblies of the same source race benignly: Assemble is
	// deterministic, so whichever result lands is equivalent.
	progCache.Store(b.Source, p)
	return p, nil
}

// NewSource assembles the benchmark, loads it into a fresh CPU, and returns
// an endless trace source over its execution.
func (b Benchmark) NewSource() (*cpu.TraceSource, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	c := cpu.LoadProgram(p)
	return cpu.NewTraceSource(c, p.Entry), nil
}

// NewWarmSource returns a trace source with the first skip cycles already
// consumed (the paper skips the first 500M instructions; scaled runs use a
// smaller skip that still clears the init phase).
func (b Benchmark) NewWarmSource(skip uint64) (trace.Source, error) {
	src, err := b.NewSource()
	if err != nil {
		return nil, err
	}
	src.Skip(skip)
	if src.Err() != nil {
		return nil, fmt.Errorf("workload %s: warm-up: %w", b.Name, src.Err())
	}
	return src, nil
}

var registry = map[string]Benchmark{}

func register(b Benchmark) Benchmark {
	if _, dup := registry[b.Name]; dup {
		// A duplicate name is a compile-time mistake in this package's own
		// benchmark table, detectable by any test that imports it; there is
		// no caller that could handle an error at package init.
		panic("workload: duplicate benchmark " + b.Name) //nanolint:ignore libpanic init-time table construction; a duplicate entry is unreachable for callers and must fail the build
	}
	registry[b.Name] = b
	return b
}

// ByName finds a benchmark.
func ByName(name string) (Benchmark, bool) {
	b, ok := registry[name]
	return b, ok
}

// All returns the paper's eight benchmarks, integer programs first, each
// class alphabetical (the paper's set: eon, crafty, twolf, mcf then applu,
// swim, art, ammp — we sort for determinism). Extras are excluded; see
// AllWithExtras.
func All() []Benchmark {
	out := make([]Benchmark, 0, len(registry))
	for _, b := range registry {
		if !b.Extra {
			out = append(out, b)
		}
	}
	sortBenchmarks(out)
	return out
}

// AllWithExtras returns every registered benchmark including the extras
// beyond the paper's set.
func AllWithExtras() []Benchmark {
	out := make([]Benchmark, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sortBenchmarks(out)
	return out
}

func sortBenchmarks(out []Benchmark) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Extra != out[j].Extra {
			return !out[i].Extra
		}
		if out[i].Class != out[j].Class {
			return out[i].Class == Int
		}
		return out[i].Name < out[j].Name
	})
}

// Names lists the benchmark names in All() order.
func Names() []string {
	bs := All()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// Memory region bases shared by the programs. Code sits low, heap arrays
// in the 0x10000000 range, and the stack high — so region switches flip
// high-order address bits, the behaviour the paper calls out for OEBI/CBI.
const (
	codeBase  = 0x0001_0000
	heapBase  = 0x1000_0000
	heap2Base = 0x2000_0000
	stackTop  = 0x7FFE_0000
)
