// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md's experiment index), plus micro-benchmarks of the hot kernels.
// Each experiment bench reports the paper-relevant scalar as a custom
// metric so `go test -bench` output doubles as a results table.
//
// The experiment benches run scaled-down windows by default so the whole
// suite completes in minutes; EXPERIMENTS.md records full-scale runs made
// with cmd/nanobus.
package nanobus_test

import (
	"testing"

	"nanobus"
	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/expt"
	"nanobus/internal/extract"
	"nanobus/internal/extract3d"
	"nanobus/internal/fdm"
	"nanobus/internal/geometry"
	"nanobus/internal/itrs"
	"nanobus/internal/ode"
	"nanobus/internal/thermal"
	"nanobus/internal/units"
	"nanobus/internal/workload"
)

// BenchmarkTable1 regenerates Table 1 with all derived parameters.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Repeater.Crep*1e12, "Crep130_pF")
			b.ReportMetric(rows[0].InterLayerRise, "dTheta130_K")
		}
	}
}

// BenchmarkFig1b runs the BEM extraction behind Fig. 1(b) (reduced mesh;
// the CLI runs the full 32-wire version).
func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig1B(expt.Fig1BOptions{Wires: 15, PanelsPerEdge: 5}, itrs.N130)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*rows[0].Dist.NonAdjacentFrac(), "nonadjacent_pct")
		}
	}
}

// BenchmarkSec33 runs the non-adjacent underestimation study.
func BenchmarkSec33(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Sec33(expt.Sec33Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].MiddleUnderestimatePct, "underest130_pct")
		}
	}
}

// fig3Bench runs a scaled Fig. 3 study for one bus and reports the
// BI-vs-unencoded energy ratio.
func fig3Bench(b *testing.B, bus string) {
	for i := 0; i < b.N; i++ {
		cells, err := expt.Fig3(expt.Fig3Options{
			Cycles:     100_000,
			Benchmarks: []string{"eon", "swim"},
			Nodes:      []itrs.Node{itrs.N130},
			Buses:      []string{bus},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var bi, un float64
			for _, c := range expt.MeanCells(cells) {
				switch c.Scheme {
				case "BI":
					bi = c.All
				case "Unencoded":
					un = c.All
				}
			}
			b.ReportMetric(bi/un, "BI_vs_unencoded")
		}
	}
}

// BenchmarkFig3_DA regenerates the Fig. 3 data-address bars (scaled).
func BenchmarkFig3_DA(b *testing.B) { fig3Bench(b, "DA") }

// BenchmarkFig3_IA regenerates the Fig. 3 instruction-address bars (scaled).
func BenchmarkFig3_IA(b *testing.B) { fig3Bench(b, "IA") }

// fig4Bench runs a scaled Fig. 4 transient for one benchmark and reports
// the final average temperature.
func fig4Bench(b *testing.B, bench string) {
	for i := 0; i < b.N; i++ {
		series, err := expt.Fig4(expt.Fig4Options{
			Cycles:         1_000_000,
			IntervalCycles: 100_000,
			Benchmarks:     []string{bench},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			s := series[0].Samples
			b.ReportMetric(s[len(s)-1].AvgTemp, "final_avg_K")
		}
	}
}

// BenchmarkFig4_Eon regenerates the Fig. 4(a-b) transients (scaled).
func BenchmarkFig4_Eon(b *testing.B) { fig4Bench(b, "eon") }

// BenchmarkFig4_Swim regenerates the Fig. 4(c-d) transients (scaled).
func BenchmarkFig4_Swim(b *testing.B) { fig4Bench(b, "swim") }

// BenchmarkFig5 regenerates the idle-window study (scaled) and reports the
// cooling across the idle gap.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig5(expt.Fig5Options{
			Cycles:     2_000_000,
			IdleStart:  1_000_000,
			IdleLength: 400_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.DropK*1000, "idle_cooling_mK")
		}
	}
}

// BenchmarkDTheta evaluates the Eq. 7 inter-layer correction for all nodes.
func BenchmarkDTheta(b *testing.B) {
	sum := 0.0
	for i := 0; i < b.N; i++ {
		for _, n := range itrs.Nodes() {
			sum += thermal.InterLayerRise(n)
		}
	}
	_ = sum
}

// --- Micro-benchmarks of the hot kernels ------------------------------------

// BenchmarkEnergyTransition measures the per-cycle energy-model kernel on a
// random-ish word stream.
func BenchmarkEnergyTransition(b *testing.B) {
	sim, err := nanobus.NewBus(nanobus.BusConfig{Node: nanobus.Node130, CouplingDepth: -1, DropSamples: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	w := uint32(0x12345678)
	for i := 0; i < b.N; i++ {
		w = w*1664525 + 1013904223
		sim.StepWord(w)
	}
}

// BenchmarkEnergyTransitionSequential measures the kernel on a
// low-transition sequential stream (the common address-bus case).
func BenchmarkEnergyTransitionSequential(b *testing.B) {
	sim, err := nanobus.NewBus(nanobus.BusConfig{Node: nanobus.Node130, CouplingDepth: -1, DropSamples: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.StepWord(uint32(i) * 4)
	}
}

// BenchmarkRK45Interval runs the adaptive integrator over the 100K-cycle
// interval that BenchmarkThermalAdvance/exact steps exactly.
func BenchmarkRK45Interval(b *testing.B) {
	net, err := thermal.NewFromNode(itrs.N130, 32, thermal.NodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, 32)
	for i := range p {
		p[i] = 1
	}
	// Drive the same ODE system through RK45 directly.
	integ := ode.NewRK45(1e-8, 1e-10)
	y := net.Temps(nil)
	if err := net.Advance(1e-6, p); err != nil { // set dynPower inside
		b.Fatal(err)
	}
	dt := 100_000 / itrs.N130.ClockHz
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := integ.Integrate(net, 0, dt, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBEMExtraction measures a 5-wire boundary-element solve.
func BenchmarkBEMExtraction(b *testing.B) {
	layout := geometry.BusLayout{
		Wires: 5,
		W:     itrs.N130.WireWidth, T: itrs.N130.WireThickness,
		S: itrs.N130.Spacing(), H: itrs.N130.ILDHeight,
		EpsRel: itrs.N130.EpsRel,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := extract.ExtractBus(layout, extract.Options{PanelsPerEdge: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBEM3DExtraction measures a 3-wire 3-D boundary-element solve.
func BenchmarkBEM3DExtraction(b *testing.B) {
	boxes := extract3d.BusBoxes(itrs.N130, 3, 10*itrs.N130.Pitch())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract3d.Extract(boxes, itrs.N130.EpsRel, extract3d.Options{
			TargetPanels: 120, GroundPlane: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFDMFieldSolve measures the finite-difference thermal validation
// solve.
func BenchmarkFDMFieldSolve(b *testing.B) {
	p := []float64{0, 10, 0}
	for i := 0; i < b.N; i++ {
		g, err := fdm.NewBusCrossSection(itrs.N130, p, units.AmbientK, fdm.Options{CellsPerWidth: 3})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.SolveSteadyState(1e-6, 40000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPUSimulator measures raw instruction throughput of the trace
// generator.
func BenchmarkCPUSimulator(b *testing.B) {
	bench, _ := workload.ByName("crafty")
	src, err := bench.NewSource()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal(src.Err())
		}
	}
}

// BenchmarkEncoders measures encoder throughput per scheme.
func BenchmarkEncoders(b *testing.B) {
	for _, name := range encoding.AllSchemes() {
		name := name
		b.Run(name, func(b *testing.B) {
			enc, err := encoding.New(name)
			if err != nil {
				b.Fatal(err)
			}
			w := uint32(0xABCD1234)
			for i := 0; i < b.N; i++ {
				w = w*1664525 + 1013904223
				enc.Encode(w)
			}
		})
	}
}

// BenchmarkFullPipeline measures the end-to-end cycles/sec of CPU ->
// energy -> thermal simulation (both buses).
func BenchmarkFullPipeline(b *testing.B) {
	bench, _ := workload.ByName("swim")
	src, err := bench.NewWarmSource(bench.WarmupCycles)
	if err != nil {
		b.Fatal(err)
	}
	mk := func() *core.Simulator {
		sim, err := core.New(core.Config{Node: itrs.N130, CouplingDepth: -1, DropSamples: true})
		if err != nil {
			b.Fatal(err)
		}
		return sim
	}
	ia, da := mk(), mk()
	b.ResetTimer()
	res, err := core.RunPair(src, ia, da, uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	if res.Cycles != uint64(b.N) {
		b.Fatalf("ran %d of %d cycles", res.Cycles, b.N)
	}
}
