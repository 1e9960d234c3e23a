package thermal

import (
	"math"
	"testing"

	"nanobus/internal/itrs"
)

// TestGridDecoupledMatchesIndependentNetworks pins the ablation contract:
// with the lateral bus-to-bus resistance severed, a K-bus grid is K
// independent one-bus networks.
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
	g, _ := twinGrids(t, shape{4, 3})
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

// TestGridReset checks Reset on a banded grid.
func TestGridReset(t *testing.T) {
	g, _ := twinGrids(t, shape{4, 2})
	checkResetReplays(t, g, "4 wires x 2 buses")
}

// TestNetworkReset checks Reset through the one-bus Network view.
func TestNetworkReset(t *testing.T) {
	net, err := NewFromNode(itrs.N90, 8, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkResetReplays(t, &net.Grid, "network w8")
}

// checkResetReplays verifies Reset restores ambient everywhere and that a
// reset grid replays a run bit-identically (the cached factorisation and
// step are retained, which must not change results).
func checkResetReplays(t *testing.T, g *Grid, label string) {
	t.Helper()
	p := make([]float64, g.N())
	for i := range p {
		p[i] = float64(1 + (i*5)%4)
	}
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
			t.Fatalf("%s node %d at %g K after Reset, ambient is %g K", label, i, temp, g.Ambient())
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("%s node %d: replay after Reset gives %.17g, first run gave %.17g", label, i, second[i], first[i])
		}
	}
}

// TestGridSetAmbient pins the mid-run reference change: SetAmbient
// rejects non-positive temperatures, Ambient reflects the new value, and
// the next Reset settles every node there.
func TestGridSetAmbient(t *testing.T) {
	for _, s := range []shape{{4, 1}, {4, 2}} {
		g, _ := twinGrids(t, s)
		if err := g.SetAmbient(0); err == nil {
			t.Fatalf("%v: zero ambient accepted", s)
		}
		if err := g.SetAmbient(-300); err == nil {
			t.Fatalf("%v: negative ambient accepted", s)
		}
		old := g.Ambient()
		if err := g.SetAmbient(old + 25); err != nil {
			t.Fatalf("%v: SetAmbient: %v", s, err)
		}
		if g.Ambient() != old+25 {
			t.Fatalf("%v: Ambient = %g, want %g", s, g.Ambient(), old+25)
		}
		g.Reset()
		for i, temp := range g.Temps(nil) {
			if temp != old+25 {
				t.Fatalf("%v node %d at %g K after Reset, new ambient is %g K", s, i, temp, old+25)
			}
		}
	}
}

// TestGridSteadyStateIsPure pins that SteadyState is a query: it leaves
// the temperatures alone, and the next Advance matches a grid that never
// asked, bit for bit.
func TestGridSteadyStateIsPure(t *testing.T) {
	for _, s := range []shape{{4, 1}, {4, 3}} {
		asked, _ := twinGrids(t, s)
		plain, _ := twinGrids(t, s)
		p := make([]float64, asked.N())
		for i := range p {
			p[i] = float64(1 + (i*7)%40)
		}
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
				t.Fatalf("%v node %d moved from %g to %g K during SteadyState", s, i, before[i], temp)
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
				t.Errorf("%v node %d: %.17g K after SteadyState, %.17g K without", s, i, a[i], b[i])
			}
		}
	}
}
