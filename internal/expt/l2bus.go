package expt

import (
	"fmt"

	"nanobus/internal/cache"
	"nanobus/internal/core"
	"nanobus/internal/itrs"
	"nanobus/internal/workload"
)

// L2BusResult is the extension experiment the paper's generality claim
// invites ("our model can be used to study energy and thermal
// characteristics of any bus ... routed in the upper metal layers"): the
// L1-to-L2 address bus, whose traffic is the L1 miss/writeback stream of
// the Sec. 5.1 cache hierarchy.
type L2BusResult struct {
	Benchmark string
	Node      string
	Cycles    uint64
	// L2BusEnergy is the energy of the L1->L2 address bus (J).
	L2BusEnergy float64
	// DABusEnergy and IABusEnergy are the processor-side buses over the
	// same window, for comparison.
	DABusEnergy, IABusEnergy float64
	// Duty is the fraction of cycles the L2 bus carries an address.
	Duty float64
	// DL1MissRate and IL1MissRate summarize the hierarchy behaviour.
	DL1MissRate, IL1MissRate float64
}

// L2BusOptions configure the study.
type L2BusOptions struct {
	// Cycles is the measured window; zero means 2,000,000.
	Cycles uint64
	// Node defaults to 130 nm.
	Node itrs.Node
	// Benchmark defaults to mcf (the heaviest miss stream).
	Benchmark string
}

// L2Bus runs a benchmark through the paper's cache hierarchy and drives
// three bus simulators: the two processor-to-L1 address buses and the
// L1-to-L2 address bus fed by the miss/writeback stream.
func L2Bus(opts L2BusOptions) (*L2BusResult, error) {
	res, _, err := l2Bus(opts)
	return res, err
}

// l2Feed is the L1-to-L2 bus's FIFO of block addresses. The bus carries
// at most one address per cycle, so the addresses of a multi-transfer
// cycle drain on later cycles: a single-channel bus, like the paper's
// setup.
type l2Feed struct {
	queue          []uint32
	raised, driven uint64
}

// hook is the hierarchy's miss hook: it queues one block address.
func (f *l2Feed) hook(blockAddr uint32, _ bool) {
	f.queue = append(f.queue, blockAddr)
	f.raised++
}

// step drives the oldest queued address onto sim, or idles it.
func (f *l2Feed) step(sim *core.Simulator) {
	if len(f.queue) == 0 {
		sim.StepIdle()
		return
	}
	sim.StepWord(f.queue[0])
	f.queue = f.queue[1:]
	f.driven++
}

// l2Bus is L2Bus, also returning the L2 bus's feed at the end of the
// window.
func l2Bus(opts L2BusOptions) (*L2BusResult, *l2Feed, error) {
	cycles := opts.Cycles
	if cycles == 0 {
		cycles = 2_000_000
	}
	node := opts.Node
	if node.Name == "" {
		node = itrs.N130
	}
	benchName := opts.Benchmark
	if benchName == "" {
		benchName = "mcf"
	}
	b, ok := workload.ByName(benchName)
	if !ok {
		return nil, nil, fmt.Errorf("expt: unknown benchmark %q", benchName)
	}
	src, err := b.NewWarmSource(b.WarmupCycles)
	if err != nil {
		return nil, nil, err
	}
	h, err := cache.NewPaperHierarchy()
	if err != nil {
		return nil, nil, err
	}
	mk := func() (*core.Simulator, error) {
		return core.New(core.Config{Node: node, CouplingDepth: -1, DropSamples: true})
	}
	ia, err := mk()
	if err != nil {
		return nil, nil, err
	}
	da, err := mk()
	if err != nil {
		return nil, nil, err
	}
	l2, err := mk()
	if err != nil {
		return nil, nil, err
	}

	var feed l2Feed
	h.IL1.MissHook = feed.hook
	h.DL1.MissHook = feed.hook

	for n := uint64(0); n < cycles; n++ {
		c, ok := src.Next()
		if !ok {
			return nil, nil, fmt.Errorf("expt: %s trace ended after %d cycles", benchName, n)
		}
		if c.IValid {
			ia.StepWord(c.IAddr)
			h.Fetch(c.IAddr)
		} else {
			ia.StepIdle()
		}
		if c.DValid {
			da.StepWord(c.DAddr)
			if c.DStore {
				h.Store(c.DAddr)
			} else {
				h.Load(c.DAddr)
			}
		} else {
			da.StepIdle()
		}
		feed.step(l2)
	}
	for _, sim := range []*core.Simulator{ia, da, l2} {
		if err := sim.Finish(); err != nil {
			return nil, nil, err
		}
	}

	return &L2BusResult{
		Benchmark:   benchName,
		Node:        node.Name,
		Cycles:      cycles,
		L2BusEnergy: l2.TotalEnergy().Total(),
		DABusEnergy: da.TotalEnergy().Total(),
		IABusEnergy: ia.TotalEnergy().Total(),
		Duty:        float64(feed.driven) / float64(cycles),
		DL1MissRate: h.DL1.Stats().MissRate(),
		IL1MissRate: h.IL1.Stats().MissRate(),
	}, &feed, nil
}

// SubstrateResult is the combined substrate-variation extension (the
// paper's Sec. 6 future work): wire temperatures when the substrate swings
// by ±SwingK with the given period while the bus switches.
type SubstrateResult struct {
	Benchmark string
	// MaxTempFixed is the peak wire temperature with a constant ambient.
	MaxTempFixed float64
	// MaxTempVarying is the peak with the swinging substrate.
	MaxTempVarying float64
	// SwingK is the applied half-amplitude.
	SwingK float64
}

// Substrate runs the same workload window twice — constant ambient vs a
// square-wave ambient of half-amplitude swingK toggling every periodCycles
// — and reports the peak wire temperatures.
func Substrate(benchName string, node itrs.Node, cycles, periodCycles uint64, swingK float64) (*SubstrateResult, error) {
	if benchName == "" {
		benchName = "swim"
	}
	if node.Name == "" {
		node = itrs.N130
	}
	if cycles == 0 {
		cycles = 4_000_000
	}
	if periodCycles == 0 {
		periodCycles = 1_000_000
	}
	b, ok := workload.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("expt: unknown benchmark %q", benchName)
	}
	run := func(vary bool) (float64, error) {
		src, err := b.NewWarmSource(b.WarmupCycles)
		if err != nil {
			return 0, err
		}
		sim, err := core.New(core.Config{Node: node, CouplingDepth: -1, DropSamples: true})
		if err != nil {
			return 0, err
		}
		base := sim.Network().Ambient()
		peak := 0.0
		var n uint64
		for n < cycles {
			c, ok := src.Next()
			if !ok {
				return 0, fmt.Errorf("trace ended")
			}
			if c.DValid {
				sim.StepWord(c.DAddr)
			} else {
				sim.StepIdle()
			}
			n++
			if vary && n%periodCycles == 0 {
				// Warm half-cycle first, so the peak-vs-fixed comparison
				// sees the +swing phase within short windows too.
				half := (n / periodCycles) % 2
				amb := base - swingK
				if half == 1 {
					amb = base + swingK
				}
				if err := sim.Network().SetAmbient(amb); err != nil {
					return 0, err
				}
			}
			if n%100_000 == 0 {
				if t, _ := sim.Network().MaxTemp(); t > peak {
					peak = t
				}
			}
		}
		if err := sim.Finish(); err != nil {
			return 0, err
		}
		if t, _ := sim.Network().MaxTemp(); t > peak {
			peak = t
		}
		return peak, nil
	}
	fixed, err := run(false)
	if err != nil {
		return nil, err
	}
	varying, err := run(true)
	if err != nil {
		return nil, err
	}
	return &SubstrateResult{
		Benchmark:      benchName,
		MaxTempFixed:   fixed,
		MaxTempVarying: varying,
		SwingK:         swingK,
	}, nil
}
