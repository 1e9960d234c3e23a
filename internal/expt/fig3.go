package expt

import (
	"context"
	"fmt"

	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/parallel"
	"nanobus/internal/trace"
	"nanobus/internal/workload"
)

// Fig3Cell is one bar of the paper's Fig. 3: total energy dissipated in one
// address bus, for one technology node and encoding scheme, under the
// three capacitance-model variants.
type Fig3Cell struct {
	// Bus is "DA" or "IA".
	Bus string
	// Node is the technology node name.
	Node string
	// Scheme is the encoding name.
	Scheme string
	// Benchmark is the workload, or "mean" for the cross-benchmark
	// average.
	Benchmark string
	// Self is the total energy with self capacitance only (J).
	Self float64
	// NN adds nearest-neighbour coupling.
	NN float64
	// All adds every coupling pair (the paper's full model).
	All float64
	// Cycles is the measured window length.
	Cycles uint64
}

// Fig3Options configure the encoding-effectiveness study.
type Fig3Options struct {
	// Cycles is the measured trace window per benchmark; zero means
	// 2,000,000. (The paper measures 20M instructions after a 500M-
	// instruction warm-up; scale Cycles up to match.)
	Cycles uint64
	// Benchmarks to run; nil means all eight.
	Benchmarks []string
	// Nodes to evaluate; nil means all four ITRS nodes.
	Nodes []itrs.Node
	// Schemes to evaluate; nil means the paper's four (BI, OEBI, CBI,
	// Unencoded).
	Schemes []string
	// Buses to evaluate; nil means both ("DA", "IA").
	Buses []string
	// Workers bounds the sweep-pool concurrency; zero means GOMAXPROCS.
	Workers int
}

// Fig3 runs the study and returns per-benchmark cells followed by
// cross-benchmark mean cells (Benchmark == "mean"). The same captured
// trace window drives every (node, scheme) pair of a benchmark, exactly
// like the paper replaying one SHADE trace through each configuration.
//
// The sweep runs in two phases. First each benchmark's window is captured
// once and compiled into run-length tapes (in parallel, one reusable
// capture buffer per worker). Then one job per (node, scheme, bus)
// configuration builds one simulator and replays every benchmark's tape
// through it on the batch pipeline, resetting between benchmarks — the
// capacitance extraction and thermal factorisation are paid once per
// configuration, and the replay itself allocates nothing. Cells are
// folded in the fixed benchmark-major order, so results are
// bit-identical across worker counts.
func Fig3(opts Fig3Options) ([]Fig3Cell, error) {
	cycles := opts.Cycles
	if cycles == 0 {
		cycles = 2_000_000
	}
	benchNames := opts.Benchmarks
	if benchNames == nil {
		benchNames = workload.Names()
	}
	nodes := opts.Nodes
	if nodes == nil {
		nodes = itrs.Nodes()
	}
	schemes := opts.Schemes
	if schemes == nil {
		schemes = encoding.PaperSchemes()
	}
	buses := opts.Buses
	if buses == nil {
		buses = []string{"DA", "IA"}
	}

	benches := make([]workload.Benchmark, len(benchNames))
	for i, name := range benchNames {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("expt: unknown benchmark %q", name)
		}
		benches[i] = b
	}

	type job struct {
		node   itrs.Node
		scheme string
		bus    string
	}
	var jobs []job
	for _, node := range nodes {
		for _, scheme := range schemes {
			for _, bus := range buses {
				jobs = append(jobs, job{node, scheme, bus})
			}
		}
	}

	// Phase 1: capture and compile every benchmark's tapes. The capture
	// window (12 bytes/cycle) lives only inside this phase, one reusable
	// buffer per worker.
	type tapes struct{ ia, da *core.Tape }
	benchTapes := make([]tapes, len(benches))
	windows := make([][]trace.Cycle, parallel.Workers(opts.Workers))
	err := parallel.ForEachWorker(opts.Workers, len(benches), func(worker, bi int) error {
		window, err := captureWindowInto(benches[bi], cycles, windows[worker])
		windows[worker] = window
		tp := &benchTapes[bi]
		if err == nil {
			tp.ia, err = core.CompileTape(trace.NewSliceSource(window), "ia", cycles)
		}
		if err == nil {
			tp.da, err = core.CompileTape(trace.NewSliceSource(window), "da", cycles)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", benches[bi].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("expt: fig3 capture: %w", err)
	}

	// Phase 2: config-major replay. Each job writes its benchmark row of
	// the flat result slab; disjoint regions, no synchronisation.
	flat := make([]Fig3Cell, len(jobs)*len(benches))
	ctx := context.Background()
	err = parallel.ForEach(opts.Workers, len(jobs), func(ji int) error {
		jb := jobs[ji]
		enc, err := encoding.New(jb.scheme)
		if err != nil {
			return err
		}
		sim, err := core.New(core.Config{
			Node:          jb.node,
			Encoder:       enc,
			CouplingDepth: -1,
			DropSamples:   true,
		})
		if err != nil {
			return err
		}
		for bi := range benches {
			sim.Reset()
			tp := benchTapes[bi].da
			if jb.bus == "IA" {
				tp = benchTapes[bi].ia
			}
			err := sim.PlayTape(ctx, tp)
			if err == nil {
				err = sim.Finish()
			}
			if err != nil {
				return fmt.Errorf("%s/%s/%s/%s: %w", jb.bus, jb.node.Name, jb.scheme, benches[bi].Name, err)
			}
			tot := sim.TotalEnergy()
			flat[ji*len(benches)+bi] = Fig3Cell{
				Bus: jb.bus, Node: jb.node.Name, Scheme: jb.scheme,
				Benchmark: benches[bi].Name,
				Self:      tot.Self,
				NN:        tot.Self + tot.CoupAdj,
				All:       tot.Total(),
				Cycles:    sim.Cycles(),
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("expt: fig3: %w", err)
	}

	// Fold benchmark-major — the same cell order and float-addition order
	// as a serial benchmark-by-benchmark sweep.
	var cells []Fig3Cell
	type key struct{ bus, node, scheme string }
	sums := map[key]*Fig3Cell{}
	for bi := range benches {
		for ji := range jobs {
			cell := flat[ji*len(benches)+bi]
			cells = append(cells, cell)
			k := key{cell.Bus, cell.Node, cell.Scheme}
			agg := sums[k]
			if agg == nil {
				agg = &Fig3Cell{Bus: cell.Bus, Node: cell.Node, Scheme: cell.Scheme, Benchmark: "mean"}
				sums[k] = agg
			}
			agg.Self += cell.Self
			agg.NN += cell.NN
			agg.All += cell.All
			agg.Cycles += cell.Cycles
		}
	}
	nb := float64(len(benchNames))
	for _, bus := range buses {
		for _, node := range nodes {
			for _, scheme := range schemes {
				agg := sums[key{bus, node.Name, scheme}]
				if agg == nil {
					continue
				}
				agg.Self /= nb
				agg.NN /= nb
				agg.All /= nb
				agg.Cycles = uint64(float64(agg.Cycles) / nb)
				cells = append(cells, *agg)
			}
		}
	}
	return cells, nil
}

// captureWindowInto replays a benchmark past its warm-up and records a
// fixed cycle window, so every configuration sees identical traffic. It
// reuses buf's capacity: a sweep worker passes its own buffer, so
// capturing many benchmarks allocates the window once per worker.
func captureWindowInto(b workload.Benchmark, cycles uint64, buf []trace.Cycle) ([]trace.Cycle, error) {
	src, err := b.NewWarmSource(b.WarmupCycles)
	if err != nil {
		return buf, err
	}
	if uint64(cap(buf)) < cycles {
		buf = make([]trace.Cycle, 0, cycles)
	}
	window := buf[:0]
	for uint64(len(window)) < cycles {
		c, ok := src.Next()
		if !ok {
			return window, fmt.Errorf("expt: %s trace ended after %d cycles", b.Name, len(window))
		}
		window = append(window, c)
	}
	return window, nil
}

// MeanCells filters the cross-benchmark mean rows.
func MeanCells(cells []Fig3Cell) []Fig3Cell {
	var out []Fig3Cell
	for _, c := range cells {
		if c.Benchmark == "mean" {
			out = append(out, c)
		}
	}
	return out
}
