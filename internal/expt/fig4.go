package expt

import (
	"fmt"

	"nanobus/internal/core"
	"nanobus/internal/itrs"
	"nanobus/internal/parallel"
	"nanobus/internal/stats"
	"nanobus/internal/trace"
	"nanobus/internal/workload"
)

// Fig4Series is the time series of one bus in one Fig. 4 panel: interval
// energy, average temperature, and maximum temperature, sampled every
// IntervalCycles.
type Fig4Series struct {
	Benchmark string
	Bus       string // "DA" or "IA"
	Node      string
	Samples   []core.Sample
	// Summary statistics used by the Sec. 5.3.1 discussion.
	Energy  stats.Summary
	AvgTemp stats.Summary
	MaxTemp stats.Summary
}

// MaxTempDrift returns the hottest-wire temperature change from the first
// to the last sample — the Sec. 5.3.1 drift metric (the paper reports the
// hottest wire rising 0.0003-0.0005 K over a 12M-cycle window, with the IA
// bus drifting faster than the DA bus).
func (s Fig4Series) MaxTempDrift() float64 {
	if len(s.Samples) < 2 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].MaxTemp - s.Samples[0].MaxTemp
}

// Fig4Options configure the transient study.
type Fig4Options struct {
	// Cycles is the simulated window; zero means 300,000,000 (the
	// paper's window — takes minutes; tests and quick runs pass less).
	Cycles uint64
	// IntervalCycles is the sampling interval; zero means the paper's
	// 100,000.
	IntervalCycles uint64
	// Node is the technology node; zero value means 130 nm (the paper's
	// thermal plots).
	Node itrs.Node
	// Benchmarks to run; nil means the paper's pair, eon and swim.
	Benchmarks []string
	// Timing, when true, runs the trace through the cache hierarchy and
	// inserts miss-stall idle cycles (the timing-aware extension; the
	// paper's SHADE traces are functional, one instruction per cycle).
	Timing bool
	// Workers bounds the per-benchmark sweep concurrency; zero means
	// GOMAXPROCS.
	Workers int
}

// Fig4 reproduces the paper's transient energy/temperature plots: for each
// benchmark, both address buses are driven from one trace while their
// thermal networks advance interval power through the exact propagator.
// Benchmarks run concurrently on the shared sweep pool; the output order
// (DA then IA per benchmark, benchmarks in input order) is deterministic.
func Fig4(opts Fig4Options) ([]Fig4Series, error) {
	cycles := opts.Cycles
	if cycles == 0 {
		cycles = 300_000_000
	}
	node := opts.Node
	if node.Name == "" {
		node = itrs.N130
	}
	benchNames := opts.Benchmarks
	if benchNames == nil {
		benchNames = []string{"eon", "swim"}
	}
	pairs, err := parallel.Map(opts.Workers, len(benchNames), func(bi int) ([2]Fig4Series, error) {
		name := benchNames[bi]
		b, ok := workload.ByName(name)
		if !ok {
			return [2]Fig4Series{}, fmt.Errorf("expt: unknown benchmark %q", name)
		}
		src, err := b.NewWarmSource(b.WarmupCycles)
		if err != nil {
			return [2]Fig4Series{}, err
		}
		if opts.Timing {
			ta, err := trace.NewTimingAdapter(src, trace.DefaultLatencies())
			if err != nil {
				return [2]Fig4Series{}, err
			}
			src = ta
		}
		ia, da, err := newPair(node, opts.IntervalCycles)
		if err != nil {
			return [2]Fig4Series{}, err
		}
		if _, err := core.RunPair(src, ia, da, cycles); err != nil {
			return [2]Fig4Series{}, err
		}
		return [2]Fig4Series{
			summarise(name, "DA", node.Name, da.Samples()),
			summarise(name, "IA", node.Name, ia.Samples()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig4Series, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out, p[0], p[1])
	}
	return out, nil
}

func newPair(node itrs.Node, interval uint64) (ia, da *core.Simulator, err error) {
	mk := func() (*core.Simulator, error) {
		return core.New(core.Config{
			Node:           node,
			CouplingDepth:  -1,
			IntervalCycles: interval,
		})
	}
	if ia, err = mk(); err != nil {
		return nil, nil, err
	}
	if da, err = mk(); err != nil {
		return nil, nil, err
	}
	return ia, da, nil
}

func summarise(bench, bus, node string, samples []core.Sample) Fig4Series {
	var e, a, m stats.Stream
	for _, s := range samples {
		e.Add(s.Energy)
		a.Add(s.AvgTemp)
		m.Add(s.MaxTemp)
	}
	return Fig4Series{
		Benchmark: bench, Bus: bus, Node: node,
		Samples: samples,
		Energy:  stats.Summarize(&e),
		AvgTemp: stats.Summarize(&a),
		MaxTemp: stats.Summarize(&m),
	}
}

// Fig5Result is the idle-window experiment: the paper's Fig. 5 shows that
// a ~1M-cycle idle period causes no appreciable cooling.
type Fig5Result struct {
	Series Fig4Series
	// IdleStart and IdleLength locate the injected window (cycles).
	IdleStart, IdleLength uint64
	// TempBeforeIdle and TempAfterIdle are the max-temperature samples
	// bracketing the window.
	TempBeforeIdle, TempAfterIdle float64
	// DropK is the cooling across the window in kelvin.
	DropK float64
}

// Fig5Options configure the idle study.
type Fig5Options struct {
	// Cycles is the simulated window; zero means 40,000,000 (the paper
	// plots ~40M cycles).
	Cycles uint64
	// IdleStart and IdleLength place the idle window; zeros mean a 1M
	// cycle window starting mid-run.
	IdleStart, IdleLength uint64
	// IntervalCycles is the sampling interval; zero means 100,000.
	IntervalCycles uint64
	// Node defaults to 130 nm.
	Node itrs.Node
	// Benchmark defaults to swim (the paper's Fig. 5 subject).
	Benchmark string
}

// Fig5 injects an idle window into the benchmark's trace and reports the
// temperature drop across it.
func Fig5(opts Fig5Options) (*Fig5Result, error) {
	cycles := opts.Cycles
	if cycles == 0 {
		cycles = 40_000_000
	}
	idleLen := opts.IdleLength
	if idleLen == 0 {
		idleLen = 1_000_000
	}
	idleStart := opts.IdleStart
	if idleStart == 0 {
		idleStart = cycles / 2
	}
	if idleStart+idleLen >= cycles {
		return nil, fmt.Errorf("expt: idle window [%d,+%d) exceeds the %d-cycle run",
			idleStart, idleLen, cycles)
	}
	node := opts.Node
	if node.Name == "" {
		node = itrs.N130
	}
	benchName := opts.Benchmark
	if benchName == "" {
		benchName = "swim"
	}
	b, ok := workload.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("expt: unknown benchmark %q", benchName)
	}
	src, err := b.NewWarmSource(b.WarmupCycles)
	if err != nil {
		return nil, err
	}
	injected, err := trace.NewIdleInjector(src, []trace.IdleWindow{
		{Start: idleStart, Length: idleLen},
	})
	if err != nil {
		return nil, err
	}
	ia, da, err := newPair(node, opts.IntervalCycles)
	if err != nil {
		return nil, err
	}
	if _, err := core.RunPair(injected, ia, da, cycles); err != nil {
		return nil, err
	}
	series := summarise(benchName, "DA", node.Name, da.Samples())
	res := &Fig5Result{
		Series:     series,
		IdleStart:  idleStart,
		IdleLength: idleLen,
	}
	// Locate the samples bracketing the idle window.
	for _, s := range series.Samples {
		if s.EndCycle <= idleStart {
			res.TempBeforeIdle = s.MaxTemp
		}
		if res.TempAfterIdle == 0 && s.EndCycle >= idleStart+idleLen { //nanolint:ignore floateq zero kelvin is the not-yet-recorded sentinel; physical temperatures are positive
			res.TempAfterIdle = s.MaxTemp
		}
	}
	res.DropK = res.TempBeforeIdle - res.TempAfterIdle
	return res, nil
}
