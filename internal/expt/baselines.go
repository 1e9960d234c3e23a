package expt

import (
	"fmt"

	"nanobus/internal/core"
	"nanobus/internal/itrs"
	"nanobus/internal/units"
	"nanobus/internal/workload"
)

// BaselineComparison contrasts the paper's dynamic per-line thermal model
// against the two prior-art approaches it criticises (Sec. 1-2):
//
//   - the worst-case model of Chiang & Saraswat [6] / Banerjee [2], which
//     assumes every wire carries the maximum RMS current density jmax, and
//   - the average-activity model of Huang et al. [8], which converts a
//     single average switching factor into a steady-state temperature.
//
// The paper's argument is quantitative: the worst-case model grossly
// overestimates signal-line temperatures (forcing oversized safety
// margins and packaging cost), while activity averaging misses the
// per-wire spread that drives electromigration. Both effects are measured
// here on a real trace.
type BaselineComparison struct {
	Benchmark string
	Node      string
	Cycles    uint64
	// DynamicMaxTemp is the hottest wire temperature reached by the
	// paper's model during the run (K).
	DynamicMaxTemp float64
	// DynamicAvgTemp is the average wire temperature at run end.
	DynamicAvgTemp float64
	// DynamicSpread is the hottest-minus-coolest wire gap at run end.
	DynamicSpread float64
	// AvgActivityTemp is the Huang-style steady state: run-average bus
	// power spread uniformly over the wires.
	AvgActivityTemp float64
	// WorstCaseTemp is the Chiang-style steady state with every wire at
	// jmax.
	WorstCaseTemp float64
}

// Baselines runs the comparison for one benchmark's DA bus.
func Baselines(benchName string, node itrs.Node, cycles uint64) (*BaselineComparison, error) {
	if benchName == "" {
		benchName = "swim"
	}
	if node.Name == "" {
		node = itrs.N130
	}
	if cycles == 0 {
		cycles = 4_000_000
	}
	b, ok := workload.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("expt: unknown benchmark %q", benchName)
	}
	src, err := b.NewWarmSource(b.WarmupCycles)
	if err != nil {
		return nil, err
	}
	sim, err := core.New(core.Config{Node: node, CouplingDepth: -1, DropSamples: true})
	if err != nil {
		return nil, err
	}
	n, err := core.RunSingle(src, sim, "da", cycles)
	if err != nil {
		return nil, err
	}
	if n < cycles {
		return nil, fmt.Errorf("expt: %s trace ended after %d cycles", benchName, n)
	}

	out := &BaselineComparison{Benchmark: benchName, Node: node.Name, Cycles: n}
	temps := sim.Temps()
	minT := temps[0]
	for _, t := range temps {
		if t > out.DynamicMaxTemp {
			out.DynamicMaxTemp = t
		}
		if t < minT {
			minT = t
		}
		out.DynamicAvgTemp += t
	}
	out.DynamicAvgTemp /= float64(len(temps))
	out.DynamicSpread = out.DynamicMaxTemp - minT

	// Huang-style: run-average total power, uniform across wires, at
	// steady state.
	wallTime := float64(n) * node.CyclePeriod()
	avgPowerPerWire := sim.TotalEnergy().Total() / wallTime / float64(sim.Width()) / core.DefaultLength
	uniform := make([]float64, sim.Width())
	for i := range uniform {
		uniform[i] = avgPowerPerWire
	}
	ss, err := sim.Network().SteadyState(uniform)
	if err != nil {
		return nil, err
	}
	out.AvgActivityTemp = ss[len(ss)/2]

	// Chiang-style: every wire at jmax forever.
	pMax := node.JMax * node.JMax * units.RhoCopper * node.WireWidth * node.WireThickness
	worst := make([]float64, sim.Width())
	for i := range worst {
		worst[i] = pMax
	}
	ws, err := sim.Network().SteadyState(worst)
	if err != nil {
		return nil, err
	}
	out.WorstCaseTemp = ws[len(ws)/2]
	return out, nil
}
