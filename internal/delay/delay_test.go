package delay

import (
	"math"
	"testing"

	"nanobus/internal/itrs"
	"nanobus/internal/units"
)

func TestResistivityScaling(t *testing.T) {
	rho0 := units.RhoCopper
	if got := ResistivityAt(rho0, RefTempK); got != rho0 {
		t.Errorf("rho at reference = %g, want %g", got, rho0)
	}
	// +100 K: +39%.
	got := ResistivityAt(rho0, RefTempK+100)
	want := rho0 * 1.39
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("rho at +100K = %g, want %g", got, want)
	}
}

func TestDelayGrowsWithTemperature(t *testing.T) {
	for _, n := range itrs.Nodes() {
		hot, ref, err := DelayAt(n, 0.01, units.AmbientK+20)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if hot <= ref {
			t.Errorf("%s: hot delay %g <= ref %g", n.Name, hot, ref)
		}
		pct := 100 * (hot - ref) / ref
		// ~45-65 K above the 293 K reference at alpha 0.39%/K scales the
		// wire-RC part; expect single-digit-to-low-teens percent delay
		// growth.
		if pct < 1 || pct > 30 {
			t.Errorf("%s: degradation %.2f%% outside plausible band", n.Name, pct)
		}
	}
}

func TestDelayValidation(t *testing.T) {
	if _, _, err := DelayAt(itrs.N130, 0.01, 0); err == nil {
		t.Error("zero temperature accepted")
	}
	if _, err := DampingFactor(itrs.N130, 0); err == nil {
		t.Error("zero length accepted")
	}
}

func TestOverdampedGlobalLines(t *testing.T) {
	// The paper's Sec. 1 scoping claim: >10 mm global lines in these
	// technologies are over-damped, so the RC energy model is valid.
	for _, n := range itrs.Nodes() {
		zeta, err := DampingFactor(n, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if zeta <= 1 {
			t.Errorf("%s: 10 mm line damping %.2f <= 1 (not over-damped)", n.Name, zeta)
		}
	}
	// Damping grows with length (R, C scale linearly; L too — zeta ~ L^1).
	z5, _ := DampingFactor(itrs.N130, 0.005)
	z20, _ := DampingFactor(itrs.N130, 0.02)
	if z20 <= z5 {
		t.Errorf("damping not increasing with length: %g vs %g", z5, z20)
	}
}

func TestInductancePlausible(t *testing.T) {
	// Global-wire loop inductance should be of order 1 uH/m (microstrip
	// with thin dielectric: a few hundred nH/m).
	for _, n := range itrs.Nodes() {
		l := InductancePerMeter(n)
		if l < 1e-8 || l > 1e-5 {
			t.Errorf("%s: L = %g H/m implausible", n.Name, l)
		}
	}
}

func TestAnalyzeAll(t *testing.T) {
	reports, err := AnalyzeAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("%d reports", len(reports))
	}
	for _, r := range reports {
		if r.HotTempK != units.AmbientK+20 {
			t.Errorf("%s: default temp %g", r.Node.Name, r.HotTempK)
		}
		if r.Damping <= 1 {
			t.Errorf("%s: damping %g", r.Node.Name, r.Damping)
		}
		if r.DegradationPct <= 0 {
			t.Errorf("%s: degradation %g", r.Node.Name, r.DegradationPct)
		}
	}
	if _, err := AnalyzeAll(400); err != nil {
		t.Fatal(err)
	}
}
