package thermal

import (
	"math"
	"math/rand"
	"testing"

	"nanobus/internal/itrs"
)

// twinGrids builds two identical K-bus grids from the node, one for
// Advance (the exact banded propagator) and one for the rk4Advance oracle
// — the banded mirror of twinNetworks.
func twinGrids(t *testing.T, wires, buses int) (exact, rk4 *Grid) {
	t.Helper()
	exact, err := NewGridFromNode(itrs.N90, wires, buses, GridNodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rk4, err = NewGridFromNode(itrs.N90, wires, buses, GridNodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return exact, rk4
}

// TestGridMatchesRK4 drives the banded exact propagator and the RK4
// oracle through the same random piecewise-constant power schedule and
// requires agreement to well within RK4's truncation error — the banded
// twin of the tridiagonal TestPropagatorMatchesRK4.
func TestGridMatchesRK4(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ wires, buses int }{{8, 1}, {4, 2}, {8, 4}, {2, 8}} {
		exact, rk4 := twinGrids(t, shape.wires, shape.buses)
		n := shape.wires * shape.buses
		dt := 1e-4
		for step := 0; step < 40; step++ {
			p := randomPower(rng, n)
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
		for k := 0; k < shape.buses; k++ {
			for j := 0; j < shape.wires; j++ {
				a, b := exact.Temp(k, j), rk4.Temp(k, j)
				if rise := a - exact.Ambient(); rise < 1e-3 {
					t.Fatalf("%dx%d bus %d wire %d: no appreciable heating (rise %g K)", shape.buses, shape.wires, k, j, rise)
				}
				if diff := math.Abs(a - b); diff > 1e-6 {
					t.Errorf("%dx%d bus %d wire %d: exact %.9f K vs RK4 %.9f K (|Δ| = %g)",
						shape.buses, shape.wires, k, j, a, b, diff)
				}
			}
		}
	}
}

// TestGridLongDtConvergesToSteadyState checks the banded analytic path:
// one exact step over many time constants lands on the steady state.
func TestGridLongDtConvergesToSteadyState(t *testing.T) {
	exact, _ := twinGrids(t, 8, 4)
	p := make([]float64, 32)
	for i := range p {
		p[i] = float64((i*7)%13) + 1
	}
	want, err := exact.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.Advance(1.0, p); err != nil {
		t.Fatal(err)
	}
	got := exact.Temps(nil)
	for i := range want {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-8 {
			t.Errorf("node %d: long-dt temp %.12f K vs steady state %.12f K", i, got[i], want[i])
		}
	}
}

// TestGridDecoupledMatchesIndependentNetworks pins the ablation contract:
// with the lateral bus-to-bus resistance severed, a K-bus grid is exactly
// K independent tridiagonal networks.
func TestGridDecoupledMatchesIndependentNetworks(t *testing.T) {
	const wires, buses = 8, 3
	dg, err := NewGridFromNode(itrs.N90, wires, buses, GridNodeOptions{DisableBusCoupling: true})
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*Network, buses)
	for k := range nets {
		if nets[k], err = NewFromNode(itrs.N90, wires, NodeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	p := make([]float64, wires*buses)
	for i := range p {
		p[i] = float64(i)
	}
	for step := 0; step < 10; step++ {
		if err := dg.Advance(2e-4, p); err != nil {
			t.Fatal(err)
		}
		for k := range nets {
			if err := nets[k].Advance(2e-4, p[k*wires:(k+1)*wires]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := range nets {
		for j := 0; j < wires; j++ {
			a, b := dg.Temp(k, j), nets[k].Temp(j)
			if math.Abs(a-b) > 1e-9 {
				t.Errorf("decoupled bus %d wire %d: %.12f vs %.12f", k, j, a, b)
			}
		}
	}
}

// TestGridCouplingWarmsQuietNeighbor is the physical sanity check of the
// lateral band: a switching bus must raise a quiet neighbor above the
// temperature it reaches in isolation.
func TestGridCouplingWarmsQuietNeighbor(t *testing.T) {
	const wires = 8
	mk := func(disable bool) []float64 {
		g, err := NewGridFromNode(itrs.N90, wires, 2, GridNodeOptions{DisableBusCoupling: disable})
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, 2*wires)
		for j := 0; j < wires; j++ {
			p[j] = 30 // bus 0 hot, bus 1 quiet
		}
		ss, err := g.SteadyState(p)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	coupled, isolated := mk(false), mk(true)
	quiet := wires + wires/2
	if coupled[quiet] <= isolated[quiet] {
		t.Errorf("coupled quiet bus %.6f K not warmer than isolated %.6f K", coupled[quiet], isolated[quiet])
	}
	t.Logf("quiet bus center: coupled %.4f K vs isolated %.4f K (hot bus %.4f K)",
		coupled[quiet], isolated[quiet], coupled[wires/2])
}

// TestGridAccessors pins the per-bus views against the flat slab.
func TestGridAccessors(t *testing.T) {
	g, _ := twinGrids(t, 4, 3)
	p := []float64{1, 2, 3, 4, 40, 30, 20, 10, 5, 5, 5, 5}
	for step := 0; step < 5; step++ {
		if err := g.Advance(1e-4, p); err != nil {
			t.Fatal(err)
		}
	}
	flat := g.Temps(nil)
	if len(flat) != g.N() || g.N() != 12 || g.Buses() != 3 || g.Wires() != 4 {
		t.Fatalf("dims: n=%d buses=%d wires=%d", g.N(), g.Buses(), g.Wires())
	}
	maxT, maxBus, maxWire := g.MaxTemp()
	var wantT float64
	var wantBus, wantWire int
	for k := 0; k < 3; k++ {
		bus := g.BusTemps(k, nil)
		busMax, busArg := g.BusMaxTemp(k)
		var sum, bm float64
		var barg int
		for j := 0; j < 4; j++ {
			if bus[j] != flat[k*4+j] || g.Temp(k, j) != flat[k*4+j] {
				t.Fatalf("bus %d wire %d: views disagree", k, j)
			}
			sum += bus[j]
			if bus[j] > bm {
				bm, barg = bus[j], j
			}
			if bus[j] > wantT {
				wantT, wantBus, wantWire = bus[j], k, j
			}
		}
		if busMax != bm || busArg != barg {
			t.Fatalf("bus %d: BusMaxTemp %g@%d, want %g@%d", k, busMax, busArg, bm, barg)
		}
		if avg := g.BusAvgTemp(k); math.Abs(avg-sum/4) > 1e-12 {
			t.Fatalf("bus %d: BusAvgTemp %g, want %g", k, avg, sum/4)
		}
	}
	if maxT != wantT || maxBus != wantBus || maxWire != wantWire {
		t.Fatalf("MaxTemp %g@%d/%d, want %g@%d/%d", maxT, maxBus, maxWire, wantT, wantBus, wantWire)
	}
}

// TestGridReset verifies Reset restores ambient everywhere and that a
// reset grid replays a run bit-identically (the cached factorisation is
// retained, which must not change results).
func TestGridReset(t *testing.T) {
	g, _ := twinGrids(t, 4, 2)
	p := []float64{1, 2, 3, 4, 4, 3, 2, 1}
	run := func() []float64 {
		for step := 0; step < 5; step++ {
			if err := g.Advance(1e-3, p); err != nil {
				t.Fatal(err)
			}
		}
		return g.Temps(nil)
	}
	first := run()
	g.Reset()
	for i, temp := range g.Temps(nil) {
		if temp != g.Ambient() {
			t.Fatalf("node %d at %g K after Reset, ambient is %g K", i, temp, g.Ambient())
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("node %d: replay after Reset gives %.17g, first run gave %.17g", i, second[i], first[i])
		}
	}
}

// TestGridSetAmbient pins the mid-run reference change: SetAmbient
// rejects non-positive temperatures, Ambient reflects the new value, and
// the next Reset settles every node there.
func TestGridSetAmbient(t *testing.T) {
	g, _ := twinGrids(t, 4, 2)
	if err := g.SetAmbient(0); err == nil {
		t.Fatal("zero ambient accepted")
	}
	if err := g.SetAmbient(-300); err == nil {
		t.Fatal("negative ambient accepted")
	}
	old := g.Ambient()
	if err := g.SetAmbient(old + 25); err != nil {
		t.Fatalf("SetAmbient: %v", err)
	}
	if g.Ambient() != old+25 {
		t.Fatalf("Ambient = %g, want %g", g.Ambient(), old+25)
	}
	g.Reset()
	for i, temp := range g.Temps(nil) {
		if temp != old+25 {
			t.Fatalf("node %d at %g K after Reset, new ambient is %g K", i, temp, old+25)
		}
	}
}

// TestGridAdvanceValidation is the banded twin of TestAdvanceValidation:
// Advance rejects a non-finite dt and SteadyState a non-finite or negative
// power, and neither moves the temperatures.
func TestGridAdvanceValidation(t *testing.T) {
	g, err := NewGridFromNode(itrs.N90, 2, 2, GridNodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(1e-3, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	before := g.Temps(nil)
	for _, dt := range []float64{math.NaN(), math.Inf(1)} {
		if err := g.Advance(dt, nil); err == nil {
			t.Errorf("dt %g accepted", dt)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := g.SteadyState([]float64{0, 0, 0, bad}); err == nil {
			t.Errorf("power %g accepted by SteadyState", bad)
		}
	}
	for i, temp := range g.Temps(nil) {
		if math.Float64bits(temp) != math.Float64bits(before[i]) {
			t.Errorf("node %d moved from %g to %g K on rejected input", i, before[i], temp)
		}
	}
}

// TestGridSteadyStateIsPure pins that SteadyState is a query: it leaves
// the temperatures alone, and the next Advance matches a grid that never
// asked, bit for bit.
func TestGridSteadyStateIsPure(t *testing.T) {
	asked, _ := twinGrids(t, 4, 3)
	plain, _ := twinGrids(t, 4, 3)
	p := []float64{1, 2, 3, 4, 40, 30, 20, 10, 5, 5, 5, 5}
	for _, g := range []*Grid{asked, plain} {
		if err := g.Advance(1e-4, p); err != nil {
			t.Fatal(err)
		}
	}
	before := asked.Temps(nil)
	if _, err := asked.SteadyState(nil); err != nil {
		t.Fatal(err)
	}
	for i, temp := range asked.Temps(nil) {
		if math.Float64bits(temp) != math.Float64bits(before[i]) {
			t.Fatalf("node %d moved from %g to %g K during SteadyState", i, before[i], temp)
		}
	}
	for _, g := range []*Grid{asked, plain} {
		if err := g.Advance(1e-4, p); err != nil {
			t.Fatal(err)
		}
	}
	a, b := asked.Temps(nil), plain.Temps(nil)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Errorf("node %d: %.17g K after SteadyState, %.17g K without", i, a[i], b[i])
		}
	}
}
