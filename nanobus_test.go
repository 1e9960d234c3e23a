package nanobus_test

import (
	"math"
	"testing"

	"nanobus"
)

// TestFacadeQuickstart exercises the README's quick-start path end to end
// through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	sim, err := nanobus.NewBus(nanobus.BusConfig{Node: nanobus.Node130, CouplingDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint32(0x1000); addr < 0x1100; addr += 4 {
		sim.StepWord(addr)
	}
	sim.Finish()
	if sim.TotalEnergy().Total() <= 0 {
		t.Error("no energy dissipated")
	}
	if len(sim.Temps()) != 32 {
		t.Errorf("temps length %d", len(sim.Temps()))
	}
}

func TestFacadeNodes(t *testing.T) {
	if len(nanobus.Nodes()) != 4 {
		t.Error("want 4 nodes")
	}
	n, ok := nanobus.NodeByName("90nm")
	if !ok || n.Name != "90nm" {
		t.Error("NodeByName failed")
	}
}

func TestFacadeEncodersAndBenchmarks(t *testing.T) {
	for _, name := range nanobus.EncodingSchemes() {
		enc, err := nanobus.NewEncoder(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := nanobus.NewDecoder(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dec.Decode(enc.Encode(0xCAFEBABE)) != 0xCAFEBABE {
			t.Errorf("%s: round trip failed", name)
		}
	}
	if len(nanobus.Benchmarks()) != 8 {
		t.Error("want 8 benchmarks")
	}
	if _, ok := nanobus.BenchmarkByName("mcf"); !ok {
		t.Error("mcf missing")
	}
}

func TestFacadeRepeatersThermalExtraction(t *testing.T) {
	plan, err := nanobus.PlanRepeaters(nanobus.Node130, 0.01)
	if err != nil || plan.Crep <= 0 {
		t.Errorf("PlanRepeaters: %+v, %v", plan, err)
	}
	net, err := nanobus.NewThermalNetwork(nanobus.Node130, 8, nanobus.ThermalOptions{})
	if err != nil || net.N() != 8 {
		t.Errorf("NewThermalNetwork: %v", err)
	}
	if nanobus.InterLayerRise(nanobus.Node130) <= 0 {
		t.Error("InterLayerRise <= 0")
	}
	caps, err := nanobus.NewCapacitanceMatrix(nanobus.Node45, 16)
	if err != nil || caps.N() != 16 {
		t.Errorf("NewCapacitanceMatrix: %v", err)
	}
}

// TestThermalNetworkRejectsNonFinite: the public thermal surface refuses
// NaN and infinite inputs instead of letting them reach the temperatures.
func TestThermalNetworkRejectsNonFinite(t *testing.T) {
	if _, err := nanobus.NewThermalNetwork(nanobus.Node130, 4, nanobus.ThermalOptions{Ambient: math.Inf(1)}); err == nil {
		t.Error("infinite ambient option accepted")
	}
	net, err := nanobus.NewThermalNetwork(nanobus.Node130, 4, nanobus.ThermalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetAmbient(math.NaN()); err == nil {
		t.Error("SetAmbient(NaN) accepted")
	}
	if err := net.SetTemps([]float64{320, math.NaN(), 320, 320}); err == nil {
		t.Error("SetTemps with a NaN accepted")
	}
	if err := net.Advance(1e-3, nil); err != nil {
		t.Fatal(err)
	}
	if avg := net.AvgTemp(); math.IsNaN(avg) || math.IsInf(avg, 0) {
		t.Errorf("average temperature %g after rejected inputs", avg)
	}
}

func TestFacadeExperimentAliases(t *testing.T) {
	rows, err := nanobus.Table1()
	if err != nil || len(rows) != 4 {
		t.Errorf("Table1: %d rows, %v", len(rows), err)
	}
	s33, err := nanobus.Sec33(nanobus.Sec33Options{})
	if err != nil || len(s33) != 4 {
		t.Errorf("Sec33: %v", err)
	}
}

func TestFacadeSyntheticTrace(t *testing.T) {
	src := nanobus.NewSyntheticTrace(nanobus.DefaultSynthConfig(1))
	ia, err := nanobus.NewBus(nanobus.BusConfig{Node: nanobus.Node65})
	if err != nil {
		t.Fatal(err)
	}
	da, err := nanobus.NewBus(nanobus.BusConfig{Node: nanobus.Node65})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nanobus.RunPair(src, ia, da, 5000)
	if err != nil || res.Cycles != 5000 {
		t.Fatalf("RunPair: %v cycles=%d", err, res.Cycles)
	}
	if ia.TotalEnergy().Total() <= 0 || da.TotalEnergy().Total() <= 0 {
		t.Error("synthetic trace dissipated nothing")
	}
}
