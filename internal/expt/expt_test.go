package expt

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nanobus/internal/itrs"
	"nanobus/internal/units"
)

func TestTable1Rows(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		// Table rwire and rho/(w*t) must agree within 15% (the paper's
		// effective resistivity assumption).
		rel := math.Abs(r.RecomputedRWire-r.Node.RWire) / r.Node.RWire
		if rel > 0.15 {
			t.Errorf("%s: recomputed rwire off by %.1f%%", r.Node.Name, 100*rel)
		}
		if r.Repeater.Crep <= 0 || r.RVertical <= 0 || r.RLateral <= 0 {
			t.Errorf("%s: non-positive derived values: %+v", r.Node.Name, r)
		}
		// Crep ~ 0.756 * Cint * L.
		want := math.Sqrt(0.4/0.7) * r.Node.CTotal() * 0.01
		if math.Abs(r.Repeater.Crep-want) > 1e-9*want {
			t.Errorf("%s: Crep = %g, want %g", r.Node.Name, r.Repeater.Crep, want)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	out := buf.String()
	for _, want := range []string{"130nm", "45nm", "c_line", "Δθ"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestFig1BShape(t *testing.T) {
	if testing.Short() {
		t.Skip("BEM extraction")
	}
	rows, err := Fig1B(Fig1BOptions{Wires: 11, PanelsPerEdge: 4}, itrs.N130, itrs.N45)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		na := r.Dist.NonAdjacentFrac()
		if na < 0.02 || na > 0.2 {
			t.Errorf("%s: non-adjacent %.3f outside plausible band", r.Node.Name, na)
		}
	}
	// Paper: the non-adjacent share decreases slightly with scaling.
	if rows[1].Dist.NonAdjacentFrac() > rows[0].Dist.NonAdjacentFrac() {
		t.Errorf("non-adjacent share grew with scaling: %.3f -> %.3f",
			rows[0].Dist.NonAdjacentFrac(), rows[1].Dist.NonAdjacentFrac())
	}
	var buf bytes.Buffer
	PrintFig1B(&buf, rows)
	if !strings.Contains(buf.String(), "Cgnd%") {
		t.Error("Fig1B output missing header")
	}
}

func TestSec33Numbers(t *testing.T) {
	rows, err := Sec33(Sec33Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		// The paper reports 6.6% at 130 nm with FastCap's matrix; our BEM
		// decay measures 4.09% (45 nm) to 4.25% (130 nm). The band is that
		// range widened by 0.5 percentage points on each side.
		if r.MiddleUnderestimatePct < 3.6 || r.MiddleUnderestimatePct > 4.75 {
			t.Errorf("%s: underestimate %.2f%% outside [3.6,4.75]", r.Node.Name, r.MiddleUnderestimatePct)
		}
		if i > 0 {
			d := math.Abs(r.MiddleUnderestimatePct - rows[0].MiddleUnderestimatePct)
			if d > 2 {
				t.Errorf("underestimate varies too much across nodes: %.2f vs %.2f",
					r.MiddleUnderestimatePct, rows[0].MiddleUnderestimatePct)
			}
		}
		// Alternating pattern is the total-energy worst case.
		if r.EnergyWorstTotal <= r.ThermalWorstTotal {
			t.Errorf("%s: alternating total %.3g <= centre-dip total %.3g",
				r.Node.Name, r.EnergyWorstTotal, r.ThermalWorstTotal)
		}
		// Centre-dip concentrates energy in the middle wire.
		if r.MiddleShareThermalWorst <= r.MiddleShareEnergyWorst {
			t.Errorf("%s: no concentration: dip share %.4f <= alt share %.4f",
				r.Node.Name, r.MiddleShareThermalWorst, r.MiddleShareEnergyWorst)
		}
	}
	if _, err := Sec33(Sec33Options{Wires: 2}); err == nil {
		t.Error("2-wire sec33 accepted")
	}
	var buf bytes.Buffer
	PrintSec33(&buf, rows)
	if !strings.Contains(buf.String(), "underestimate") {
		t.Error("Sec33 output missing header")
	}
}

func TestFig3SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven study")
	}
	cells, err := Fig3(Fig3Options{
		Cycles:     150_000,
		Benchmarks: []string{"crafty", "swim"},
		Nodes:      []itrs.Node{itrs.N130},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks x 1 node x 4 schemes x 2 buses + 8 means = 24.
	if len(cells) != 24 {
		t.Fatalf("%d cells, want 24", len(cells))
	}
	byKey := map[string]Fig3Cell{}
	for _, c := range cells {
		byKey[c.Bus+"/"+c.Scheme+"/"+c.Benchmark] = c
		if !(c.Self <= c.NN && c.NN <= c.All) {
			t.Errorf("variant ordering violated in %+v", c)
		}
		if c.All <= 0 {
			t.Errorf("zero energy in %+v", c)
		}
	}
	// Paper finding (e): encodings on the IA bus are ineffective. Measured
	// against unencoded: BI and CBI 1.0000x, OEBI 1.0020x (0.2% worse).
	// The band is 1% either side of unencoded, five times that gap.
	un := byKey["IA/Unencoded/mean"].All
	for _, scheme := range []string{"BI", "OEBI", "CBI"} {
		enc := byKey["IA/"+scheme+"/mean"].All
		if math.Abs(enc/un-1) > 0.01 {
			t.Errorf("%s on IA moved energy by more than 1%% (%.4g vs %.4g), contradicting the paper's finding",
				scheme, enc, un)
		}
	}
	var buf bytes.Buffer
	PrintFig3(&buf, MeanCells(cells))
	if !strings.Contains(buf.String(), "Unencoded") {
		t.Error("Fig3 output missing scheme")
	}
}

func TestFig4SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven study")
	}
	series, err := Fig4(Fig4Options{
		Cycles:         600_000,
		IntervalCycles: 50_000,
		Benchmarks:     []string{"eon"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series, want 2 (DA+IA)", len(series))
	}
	// The final average-temperature rise and the hottest-wire drift of
	// each bus, measured on eon's trace, whose generator
	// TestBenchmarkTracesGolden in internal/workload pins. The 1% margin
	// covers the
	// math.Exp FMA dispatch in the thermal propagator, which moves the
	// last bits of the temperatures between amd64 hosts with and without
	// FMA.
	const margin = 0.01
	want := map[string]struct{ rise, drift float64 }{
		"DA": {rise: 0.57094, drift: 0.52697},
		"IA": {rise: 0.57183, drift: 0.55020},
	}
	for _, s := range series {
		if len(s.Samples) != 12 {
			t.Errorf("%s: %d samples, want 12", s.Bus, len(s.Samples))
		}
		w, ok := want[s.Bus]
		if !ok {
			t.Fatalf("unexpected bus %q", s.Bus)
		}
		rise := s.Samples[len(s.Samples)-1].AvgTemp - units.AmbientK
		if math.Abs(rise/w.rise-1) > margin {
			t.Errorf("%s: final average rise %.5f K, want %.5f K within %.0f%%", s.Bus, rise, w.rise, 100*margin)
		}
		if d := s.MaxTempDrift(); math.Abs(d/w.drift-1) > margin {
			t.Errorf("%s: hottest-wire drift %.5f K, want %.5f K within %.0f%%", s.Bus, d, w.drift, 100*margin)
		}
	}
	if (Fig4Series{}).MaxTempDrift() != 0 {
		t.Error("empty series drift != 0")
	}

	var buf bytes.Buffer
	PrintFig4Summary(&buf, series)
	if !strings.Contains(buf.String(), "eon") {
		t.Error("Fig4 summary missing benchmark")
	}
	buf.Reset()
	if err := WriteFig4CSV(&buf, series[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cycle,interval_energy_j") {
		t.Error("CSV missing header")
	}
}

func TestFig5SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven study")
	}
	res, err := Fig5(Fig5Options{
		Cycles:         3_000_000,
		IdleStart:      1_500_000,
		IdleLength:     500_000,
		IntervalCycles: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TempBeforeIdle == 0 || res.TempAfterIdle == 0 {
		t.Fatal("idle window brackets not found")
	}
	// The Fig. 5 property: no appreciable cooling across the idle gap.
	rise := res.TempBeforeIdle - units.AmbientK
	if rise <= 0 {
		t.Fatal("no rise before the idle window")
	}
	if res.DropK > 0.15*rise {
		t.Errorf("idle gap cooled by %.4f K of a %.4f K rise (>15%%)", res.DropK, rise)
	}
	// Invalid window rejected.
	if _, err := Fig5(Fig5Options{Cycles: 100, IdleStart: 50, IdleLength: 100}); err == nil {
		t.Error("overlong idle window accepted")
	}
}

func TestFig3UnknownBenchmark(t *testing.T) {
	if _, err := Fig3(Fig3Options{Benchmarks: []string{"gcc"}, Cycles: 10}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Fig4(Fig4Options{Benchmarks: []string{"gcc"}, Cycles: 10}); err == nil {
		t.Error("unknown benchmark accepted by Fig4")
	}
	if _, err := Fig5(Fig5Options{Benchmark: "gcc", Cycles: 1000, IdleStart: 10, IdleLength: 10}); err == nil {
		t.Error("unknown benchmark accepted by Fig5")
	}
}
