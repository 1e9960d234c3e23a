package reliability

import (
	"math"
	"testing"

	"nanobus/internal/itrs"
	"nanobus/internal/units"
)

func TestRelativeMTTFReference(t *testing.T) {
	// At the reference condition the relative MTTF is exactly 1.
	m, err := RelativeMTTF(Params{}, 350, 1e10, 350, 1e10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1) > 1e-12 {
		t.Errorf("MTTF at reference = %g, want 1", m)
	}
}

func TestHotterIsShorter(t *testing.T) {
	ref := 318.15
	prev := math.Inf(1)
	for _, temp := range []float64{318.15, 328.15, 338.15, 358.15} {
		m, err := RelativeMTTF(Params{}, temp, 1e10, ref, 1e10)
		if err != nil {
			t.Fatal(err)
		}
		if m >= prev {
			t.Errorf("MTTF did not fall with temperature: %g at %g K", m, temp)
		}
		prev = m
	}
}

func TestTwentyKelvinRule(t *testing.T) {
	// With Ea = 0.9 eV around 320 K, +20 K should cost roughly a factor
	// of ~7-9 in lifetime — the quantitative bite behind the paper's
	// warning about a 20 K bus temperature rise.
	m, err := RelativeMTTF(Params{}, units.AmbientK+20, 1, units.AmbientK, 1)
	if err != nil {
		t.Fatal(err)
	}
	if af := 1 / m; af < 5 || af > 12 {
		t.Errorf("acceleration for +20K = %.2f, want ~5-12", 1/m)
	}
}

func TestCurrentExponent(t *testing.T) {
	// Doubling current density with n=2 quarters the lifetime.
	m, err := RelativeMTTF(Params{}, 330, 2e10, 330, 1e10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.25) > 1e-12 {
		t.Errorf("MTTF at 2x j = %g, want 0.25", m)
	}
	// Custom exponent n=1: halves it.
	m, err = RelativeMTTF(Params{CurrentExponent: 1}, 330, 2e10, 330, 1e10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.5) > 1e-12 {
		t.Errorf("n=1 MTTF = %g, want 0.5", m)
	}
}

func TestIdleWireUnbounded(t *testing.T) {
	m, err := RelativeMTTF(Params{}, 330, 0, 330, 1e10)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(m, 1) {
		t.Errorf("idle wire MTTF = %g, want +Inf", m)
	}
}

func TestValidation(t *testing.T) {
	if _, err := RelativeMTTF(Params{}, 0, 1, 300, 1); err == nil {
		t.Error("zero temperature accepted")
	}
	if _, err := RelativeMTTF(Params{}, 300, -1, 300, 1); err == nil {
		t.Error("negative current accepted")
	}
	if _, err := RelativeMTTF(Params{}, 300, 1, 300, 0); err == nil {
		t.Error("zero reference current accepted")
	}
	if _, err := AssessBus(Params{}, []float64{300}, []float64{1, 2}, 300, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := AssessBus(Params{}, nil, nil, 300, 1); err == nil {
		t.Error("empty bus accepted")
	}
}

func TestAssessBusFindsHotWire(t *testing.T) {
	temps := []float64{320, 325, 340, 325, 320}
	currents := []float64{1e10, 1e10, 1e10, 1e10, 1e10}
	a, err := AssessBus(Params{}, temps, currents, units.AmbientK, 1e10)
	if err != nil {
		t.Fatal(err)
	}
	if a.WorstWire != 2 {
		t.Errorf("worst wire = %d, want 2 (the hottest)", a.WorstWire)
	}
	if a.WorstRelMTTF >= 1 {
		t.Errorf("hot wire MTTF = %g, want < 1", a.WorstRelMTTF)
	}
	// The uniform-temperature model (avg 326 K < 340 K) must be more
	// optimistic than the per-wire model — the paper's misprediction.
	if a.UniformModelRelMTTF <= a.WorstRelMTTF {
		t.Errorf("uniform model (%g) not more optimistic than per-wire (%g)",
			a.UniformModelRelMTTF, a.WorstRelMTTF)
	}
}

func TestRMSCurrentDensity(t *testing.T) {
	n := itrs.N130
	// A wire dissipating 1 W/m in a 335x670 nm cross-section.
	j, err := RMSCurrentDensity(1, units.RhoCopper, n.WireWidth, n.WireThickness)
	if err != nil {
		t.Fatal(err)
	}
	// Invert: p' = j^2 * rho * w * t.
	back := j * j * units.RhoCopper * n.WireWidth * n.WireThickness
	if math.Abs(back-1) > 1e-9 {
		t.Errorf("round trip power = %g, want 1", back)
	}
	if _, err := RMSCurrentDensity(-1, 1, 1, 1); err == nil {
		t.Error("negative power accepted")
	}
	// Zero power: zero current.
	j0, err := RMSCurrentDensity(0, units.RhoCopper, n.WireWidth, n.WireThickness)
	if err != nil || j0 != 0 {
		t.Errorf("zero power j = %g, %v", j0, err)
	}
}
