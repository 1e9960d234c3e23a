package expt

import (
	"fmt"
	"sync"

	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/trace"
	"nanobus/internal/workload"
)

// SweepCache retains the expensive sweep inputs across driver calls:
// simulators keyed by configuration (capacitance extraction and thermal
// eigendecomposition survive via Reset, which is bit-identical to a fresh
// build) and compiled trace tapes keyed by
// (benchmark, bus, window length). One cache shared across Fig3/Fig4
// calls turns a repeated sweep into pure replay: no model rebuilds, no
// re-capture, no per-cycle trace dispatch. A nil cache in the drivers'
// options means a private per-call cache, which still deduplicates work
// inside the call. All methods are safe for concurrent use.
type SweepCache struct {
	mu      sync.Mutex
	sims    map[simKey][]*core.Simulator
	tapes   map[tapeKey]*core.Tape
	windows [][]trace.Cycle
}

// simKey is the pooling identity of a sweep simulator: every field that
// reaches core.Config, with zero values meaning the core defaults (nodes
// and encoders are identified by name; both registries return fixed
// configurations per name).
type simKey struct {
	node     string
	scheme   string
	lengthM  float64
	interval uint64
	depth    int
	track    bool
	drop     bool
}

// tapeKey identifies one compiled single-bus trace window.
type tapeKey struct {
	bench  string
	kind   string // "ia" or "da"
	cycles uint64
}

// NewSweepCache returns an empty cache.
func NewSweepCache() *SweepCache {
	return &SweepCache{
		sims:  map[simKey][]*core.Simulator{},
		tapes: map[tapeKey]*core.Tape{},
	}
}

// sim pops a cached simulator for k — reset, so bit-identical to a fresh
// build — or constructs one from the key.
func (c *SweepCache) sim(k simKey) (*core.Simulator, error) {
	c.mu.Lock()
	if free := c.sims[k]; len(free) > 0 {
		sim := free[len(free)-1]
		c.sims[k] = free[:len(free)-1]
		c.mu.Unlock()
		sim.Reset()
		return sim, nil
	}
	c.mu.Unlock()

	node, err := itrs.Resolve(k.node)
	if err != nil {
		return nil, err
	}
	var enc encoding.Encoder
	if k.scheme != "" {
		if enc, err = encoding.New(k.scheme); err != nil {
			return nil, err
		}
	}
	return core.New(core.Config{
		Node:           node,
		Length:         k.lengthM,
		Encoder:        enc,
		CouplingDepth:  k.depth,
		IntervalCycles: k.interval,
		TrackWireTemps: k.track,
		DropSamples:    k.drop,
	})
}

// release shelves a simulator for reuse under its key; poisoned
// simulators are dropped.
func (c *SweepCache) release(k simKey, sim *core.Simulator) {
	if sim == nil || sim.Err() != nil {
		return
	}
	c.mu.Lock()
	c.sims[k] = append(c.sims[k], sim)
	c.mu.Unlock()
}

// window pops a pooled capture buffer (nil when the pool is empty — the
// capture path grows it to size). Buffers return through putWindow, so a
// shared cache amortises the 12-bytes/cycle capture slabs across both
// workers and sweep invocations instead of allocating one per worker per
// call.
func (c *SweepCache) window() []trace.Cycle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.windows); n > 0 {
		w := c.windows[n-1]
		c.windows = c.windows[:n-1]
		return w
	}
	return nil
}

// putWindow shelves a capture buffer for reuse.
func (c *SweepCache) putWindow(w []trace.Cycle) {
	if cap(w) == 0 {
		return
	}
	c.mu.Lock()
	c.windows = append(c.windows, w[:0])
	c.mu.Unlock()
}

// tapePair returns the benchmark's compiled IA and DA tapes for a window
// of exactly cycles cycles, capturing and compiling on miss. window is a
// reusable capture buffer: the caller passes what the previous call
// returned (nil at first), so one worker sweeping many benchmarks
// allocates the window once. Concurrent misses of the same key build
// twice and store equivalent tapes — wasteful but correct, and the
// drivers dispatch one benchmark per job so it does not happen there.
func (c *SweepCache) tapePair(b workload.Benchmark, cycles uint64, window []trace.Cycle) (ia, da *core.Tape, _ []trace.Cycle, err error) {
	ki := tapeKey{b.Name, "ia", cycles}
	kd := tapeKey{b.Name, "da", cycles}
	c.mu.Lock()
	ia, da = c.tapes[ki], c.tapes[kd]
	c.mu.Unlock()
	if ia != nil && da != nil {
		return ia, da, window, nil
	}
	window, err = captureWindowInto(b, cycles, window)
	if err != nil {
		return nil, nil, window, err
	}
	if ia, err = core.CompileTape(trace.NewSliceSource(window), "ia", cycles); err != nil {
		return nil, nil, window, err
	}
	if da, err = core.CompileTape(trace.NewSliceSource(window), "da", cycles); err != nil {
		return nil, nil, window, err
	}
	if ia.Cycles() != cycles || da.Cycles() != cycles {
		return nil, nil, window, fmt.Errorf("expt: %s tape is %d cycles, want %d", b.Name, ia.Cycles(), cycles)
	}
	c.mu.Lock()
	c.tapes[ki], c.tapes[kd] = ia, da
	c.mu.Unlock()
	return ia, da, window, nil
}
