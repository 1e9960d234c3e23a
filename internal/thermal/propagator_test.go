package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nanobus/internal/itrs"
)

// shape is a grid of buses x wires; buses == 1 takes the dense K = 1
// step, more buses the Kronecker-factored one.
type shape struct{ wires, buses int }

func (s shape) String() string { return fmt.Sprintf("%dx%d", s.buses, s.wires) }

// twinGrids builds two identical grids from the node: one for Advance
// (the exact propagator) and one for the rk4Advance oracle.
func twinGrids(t *testing.T, s shape) (exact, rk4 *Grid) {
	t.Helper()
	exact, err := NewGridFromNode(itrs.N90, s.wires, s.buses, GridNodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rk4, err = NewGridFromNode(itrs.N90, s.wires, s.buses, GridNodeOptions{})
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

// TestPropagatorMatchesRK4 checks the dense K = 1 step against the RK4
// oracle on one-bus widths.
func TestPropagatorMatchesRK4(t *testing.T) {
	checkMatchesRK4(t, 7, []shape{{1, 1}, {2, 1}, {8, 1}, {32, 1}})
}

// TestGridMatchesRK4 checks the Kronecker-factored K > 1 step against the
// RK4 oracle on multi-bus grids.
func TestGridMatchesRK4(t *testing.T) {
	checkMatchesRK4(t, 11, []shape{{4, 2}, {8, 4}, {2, 8}})
}

// checkMatchesRK4 drives Advance and the RK4 oracle through the same
// random piecewise-constant power schedule and requires agreement to well
// within RK4's own truncation error.
func checkMatchesRK4(t *testing.T, seed int64, shapes []shape) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, s := range shapes {
		exact, rk4 := twinGrids(t, s)
		dt := 1e-4 // ~1% of the network time constant: several RK4 substeps
		for step := 0; step < 40; step++ {
			p := randomPower(rng, exact.N())
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
		for k := 0; k < s.buses; k++ {
			for j := 0; j < s.wires; j++ {
				a, b := exact.Temp(k, j), rk4.Temp(k, j)
				if rise := a - exact.Ambient(); rise < 1e-3 {
					t.Fatalf("%v bus %d wire %d: no appreciable heating (rise %g K), test is vacuous", s, k, j, rise)
				}
				if diff := math.Abs(a - b); diff > 1e-6 {
					t.Errorf("%v bus %d wire %d: exact %.9f K vs RK4 %.9f K (|Δ| = %g)", s, k, j, a, b, diff)
				}
			}
		}
	}
}

// TestPropagatorLongDtConvergesToSteadyState covers the Thomas (K = 1)
// steady state.
func TestPropagatorLongDtConvergesToSteadyState(t *testing.T) {
	checkLongDtSteadyState(t, shape{16, 1}, 1e-9)
}

// TestGridLongDtConvergesToSteadyState covers the spectral (K > 1) steady
// state.
func TestGridLongDtConvergesToSteadyState(t *testing.T) {
	checkLongDtSteadyState(t, shape{8, 4}, 1e-8)
}

// checkLongDtSteadyState checks that one exact step over many time
// constants lands on the analytic steady state (the e^{-Λdt} factors
// underflow to ~0, leaving θ*), to within tol kelvin.
func checkLongDtSteadyState(t *testing.T, s shape, tol float64) {
	t.Helper()
	exact, _ := twinGrids(t, s)
	p := make([]float64, exact.N())
	for i := range p {
		p[i] = float64((i*7)%13) + 1
	}
	want, err := exact.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// 1 s is ~100 time constants of the slowest mode.
	if err := exact.Advance(1.0, p); err != nil {
		t.Fatal(err)
	}
	for i, got := range exact.Temps(nil) {
		if diff := math.Abs(got - want[i]); diff > tol {
			t.Errorf("%v node %d: long-dt temp %.12f K vs steady state %.12f K", s, i, got, want[i])
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
		if err := rk4Advance(&ref.Grid, 2e-4, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if diff := math.Abs(nw.Temp(i) - ref.Temp(i)); diff > 1e-7 {
			t.Errorf("wire %d: uncoupled exact %.9f vs RK4 %.9f", i, nw.Temp(i), ref.Temp(i))
		}
	}
}
