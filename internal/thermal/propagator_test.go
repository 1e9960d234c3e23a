package thermal

import (
	"math"
	"math/rand"
	"testing"

	"nanobus/internal/itrs"
)

// twinNetworks builds two identical networks from the node: one for
// Advance (the exact propagator) and one for the rk4Advance oracle.
func twinNetworks(t *testing.T, wires int) (exact, rk4 *Network) {
	t.Helper()
	exact, err := NewFromNode(itrs.N90, wires, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rk4, err = NewFromNode(itrs.N90, wires, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return exact, rk4
}

func randomPower(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.Float64() * 20 // W/m, the order of a hot global wire
	}
	return p
}

// TestPropagatorMatchesRK4 drives Advance and the RK4 oracle through the
// same random piecewise-constant power schedule and requires agreement to
// well within RK4's own truncation error.
func TestPropagatorMatchesRK4(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, wires := range []int{1, 2, 8, 32} {
		exact, rk4 := twinNetworks(t, wires)
		dt := 1e-4 // ~1% of the network time constant: several RK4 substeps
		for step := 0; step < 40; step++ {
			p := randomPower(rng, wires)
			if step%5 == 4 {
				p = nil // idle interval
			}
			if err := exact.Advance(dt, p); err != nil {
				t.Fatal(err)
			}
			if err := rk4Advance(rk4, dt, p); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < wires; i++ {
			a, b := exact.Temp(i), rk4.Temp(i)
			if rise := a - exact.Ambient(); rise < 1e-3 {
				t.Fatalf("wires %d wire %d: no appreciable heating (rise %g K), test is vacuous", wires, i, rise)
			}
			if diff := math.Abs(a - b); diff > 1e-6 {
				t.Errorf("wires %d wire %d: exact %.9f K vs RK4 %.9f K (|Δ| = %g)", wires, i, a, b, diff)
			}
		}
	}
}

// TestPropagatorLongDtConvergesToSteadyState checks that one exact step over
// many time constants lands on the analytic steady state (the e^{-Λdt}
// factors underflow to ~0, leaving θ*).
func TestPropagatorLongDtConvergesToSteadyState(t *testing.T) {
	exact, _ := twinNetworks(t, 16)
	p := make([]float64, 16)
	for i := range p {
		p[i] = 5 + float64(i%3)
	}
	want, err := exact.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// 1 s is ~100 time constants of the slowest mode.
	if err := exact.Advance(1.0, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if diff := math.Abs(exact.Temp(i) - want[i]); diff > 1e-9 {
			t.Errorf("wire %d: long-dt temp %.12f K vs steady state %.12f K", i, exact.Temp(i), want[i])
		}
	}
}

// TestPropagatorExactForAnyDt is the property RK4 cannot offer: one big step
// equals many small steps to near machine precision (the propagator is the
// analytic solution, not an integration).
func TestPropagatorExactForAnyDt(t *testing.T) {
	one, _ := NewFromNode(itrs.N90, 8, NodeOptions{})
	many, _ := NewFromNode(itrs.N90, 8, NodeOptions{})
	p := []float64{3, 0, 7, 7, 1, 0, 4, 2}
	if err := one.Advance(8e-3, p); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if err := many.Advance(1e-3, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		a, b := one.Temp(i), many.Temp(i)
		if diff := math.Abs(a - b); diff > 1e-10*math.Abs(a) {
			t.Errorf("wire %d: one step %.15g K vs eight steps %.15g K", i, a, b)
		}
	}
}

// TestPropagatorNoLateral covers the diagonal (uncoupled) special case used
// by the DisableLateral ablation.
func TestPropagatorNoLateral(t *testing.T) {
	nw, err := NewFromNode(itrs.N90, 4, NodeOptions{DisableLateral: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewFromNode(itrs.N90, 4, NodeOptions{DisableLateral: true})
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{10, 0, 10, 0}
	for step := 0; step < 10; step++ {
		if err := nw.Advance(2e-4, p); err != nil {
			t.Fatal(err)
		}
		if err := rk4Advance(ref, 2e-4, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if diff := math.Abs(nw.Temp(i) - ref.Temp(i)); diff > 1e-7 {
			t.Errorf("wire %d: uncoupled exact %.9f vs RK4 %.9f", i, nw.Temp(i), ref.Temp(i))
		}
	}
}

// TestNetworkReset verifies Reset restores ambient and that a reset network
// replays a run bit-identically (the propagator cache is retained, which must
// not change results).
func TestNetworkReset(t *testing.T) {
	nw, err := NewFromNode(itrs.N90, 8, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{1, 2, 3, 4, 4, 3, 2, 1}
	run := func() []float64 {
		for step := 0; step < 5; step++ {
			if err := nw.Advance(1e-3, p); err != nil {
				t.Fatal(err)
			}
		}
		return nw.Temps(nil)
	}
	first := run()
	nw.Reset()
	for i := 0; i < nw.N(); i++ {
		if nw.Temp(i) != nw.Ambient() {
			t.Fatalf("wire %d at %g K after Reset, ambient is %g K", i, nw.Temp(i), nw.Ambient())
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("wire %d: replay after Reset gives %.17g, first run gave %.17g", i, second[i], first[i])
		}
	}
}
