package thermal

import (
	"math"
	"testing"

	"nanobus/internal/itrs"
	"nanobus/internal/units"
)

func TestVerticalResistance130nm(t *testing.T) {
	// Hand evaluation of Eq. 6 for the 130 nm node:
	// Rspr = ln((335+335)/335)/(2*0.6) = ln(2)/1.2
	// Rrect = (724n - 0.5*335n)/(0.6*670n)
	g := NodeGeometry(itrs.N130)
	r, err := g.VerticalResistance()
	if err != nil {
		t.Fatal(err)
	}
	rspr := math.Log(2) / 1.2
	rrect := (724e-9 - 167.5e-9) / (0.6 * 670e-9)
	want := rspr + rrect
	if math.Abs(r-want) > 1e-9*want {
		t.Errorf("Rvert = %g, want %g", r, want)
	}
}

func TestLateralResistance(t *testing.T) {
	g := NodeGeometry(itrs.N130)
	r, err := g.LateralResistance()
	if err != nil {
		t.Fatal(err)
	}
	want := 335e-9 / (0.6 * 670e-9)
	if math.Abs(r-want) > 1e-9*want {
		t.Errorf("Rinter = %g, want %g", r, want)
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := WireGeometry{Width: 0, Thickness: 1, Spacing: 1, ILDHeight: 1, KDielectric: 1}
	if _, err := bad.VerticalResistance(); err == nil {
		t.Error("invalid geometry accepted by VerticalResistance")
	}
	if _, err := (WireGeometry{Spacing: 0, Thickness: 1, KDielectric: 1}).LateralResistance(); err == nil {
		t.Error("invalid geometry accepted by LateralResistance")
	}
}

func TestHeatCapacityWireOnly(t *testing.T) {
	g := NodeGeometry(itrs.N130)
	c := g.HeatCapacity(HeatCapacityOptions{})
	want := units.CvCopper * g.Thickness * g.Width
	if math.Abs(c-want) > 1e-12*want {
		t.Errorf("wire-only Ci = %g, want %g", c, want)
	}
	cBig := g.HeatCapacity(HeatCapacityOptions{ExtraDielectricArea: DefaultExtraDielectricArea})
	if cBig <= c {
		t.Error("dielectric mass did not increase Ci")
	}
}

func newTestNetwork(t *testing.T, wires int) *Network {
	t.Helper()
	nw, err := NewFromNode(itrs.N130, wires, NodeOptions{DisableInterLayer: true})
	if err != nil {
		t.Fatalf("NewFromNode: %v", err)
	}
	return nw
}

func TestNoPowerStaysAtAmbient(t *testing.T) {
	nw := newTestNetwork(t, 5)
	if err := nw.Advance(1e-3, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(nw.Temp(i)-units.AmbientK) > 1e-9 {
			t.Errorf("wire %d drifted to %g K with no power", i, nw.Temp(i))
		}
	}
}

func TestUniformPowerSteadyState(t *testing.T) {
	// Uniform power on all wires: lateral flow vanishes by symmetry, so
	// steady state is ambient + P*Rvert for every wire.
	nw := newTestNetwork(t, 7)
	p := make([]float64, 7)
	for i := range p {
		p[i] = 10 // W/m
	}
	ss, err := nw.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	g := NodeGeometry(itrs.N130)
	rv, _ := g.VerticalResistance()
	want := units.AmbientK + 10*rv
	for i, temp := range ss {
		if math.Abs(temp-want) > 1e-6 {
			t.Errorf("wire %d steady state %g, want %g", i, temp, want)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	nw := newTestNetwork(t, 5)
	p := []float64{0, 40, 5, 40, 0} // non-uniform: exercises lateral flow
	ss, err := nw.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// Advance many time constants.
	for k := 0; k < 60; k++ {
		if err := nw.Advance(5e-3, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if math.Abs(nw.Temp(i)-ss[i]) > 1e-6*(ss[i]) {
			t.Errorf("wire %d transient %g vs steady state %g", i, nw.Temp(i), ss[i])
		}
	}
}

func TestLateralCouplingFlattensProfile(t *testing.T) {
	// Heat only the centre wire. With lateral conduction its neighbours
	// warm up and the centre runs cooler than without lateral coupling.
	mk := func(disableLateral bool) *Network {
		nw, err := NewFromNode(itrs.N130, 5, NodeOptions{
			DisableInterLayer: true, DisableLateral: disableLateral,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	p := []float64{0, 0, 50, 0, 0}
	with, err := mk(false).SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	without, err := mk(true).SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if with[2] >= without[2] {
		t.Errorf("lateral coupling did not cool the hot wire: %g vs %g", with[2], without[2])
	}
	if with[1] <= without[1] {
		t.Errorf("lateral coupling did not warm the neighbour: %g vs %g", with[1], without[1])
	}
	// Without lateral coupling the neighbours stay exactly ambient.
	if math.Abs(without[1]-units.AmbientK) > 1e-9 {
		t.Errorf("uncoupled neighbour at %g, want ambient", without[1])
	}
}

func TestEdgeVsMiddleEquations(t *testing.T) {
	// Eq. 3 vs Eq. 4: with equal power everywhere except a cold edge,
	// edge wires (one lateral neighbour) must end up warmer than a middle
	// wire adjacent to the same number of hot wires... simplest check:
	// derivative computation respects the edge/middle structure.
	nw := newTestNetwork(t, 3)
	y := []float64{320, 320, 320}
	dydt := make([]float64, 3)
	nw.dynPower[0], nw.dynPower[1], nw.dynPower[2] = 0, 0, 0
	nw.Derivatives(0, y, dydt)
	// Equal temps, no power: all wires cool identically (only vertical
	// path active; lateral terms cancel).
	if dydt[0] != dydt[1] || dydt[1] != dydt[2] {
		t.Errorf("uniform-state derivatives differ: %v", dydt)
	}
	if dydt[0] >= 0 {
		t.Error("hot unpowered wire not cooling")
	}
	// Now a hot centre: centre loses heat both ways, edges gain.
	y = []float64{320, 330, 320}
	nw.Derivatives(0, y, dydt)
	if !(dydt[1] < dydt[0] && dydt[0] == dydt[2]) {
		t.Errorf("lateral asymmetry wrong: %v", dydt)
	}
}

func TestInterLayerRiseMagnitude(t *testing.T) {
	// Eq. 7 should give a rise of order 10 K at 130 nm (the paper's
	// Fig. 4 saturates ~20 K above ambient with dynamic heating on top)
	// and grow as dielectrics get thermally worse at finer nodes.
	rises := map[string]float64{}
	for _, node := range itrs.Nodes() {
		dt := InterLayerRise(node)
		rises[node.Name] = dt
		if dt <= 0 {
			t.Errorf("%s: Δθ = %g, want > 0", node.Name, dt)
		}
	}
	if rises["130nm"] < 2 || rises["130nm"] > 60 {
		t.Errorf("130nm Δθ = %.2f K, want order 10 K", rises["130nm"])
	}
	if rises["45nm"] <= rises["130nm"] {
		t.Errorf("Δθ should grow with scaling: 45nm %.2f <= 130nm %.2f",
			rises["45nm"], rises["130nm"])
	}
}

func TestNewFromNodeWarmsTowardInterLayerRise(t *testing.T) {
	nw, err := NewFromNode(itrs.N130, 5, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := nw.SteadyState(nil)
	if err != nil {
		t.Fatal(err)
	}
	dTheta := InterLayerRise(itrs.N130)
	want := units.AmbientK + dTheta
	// Middle wire reaches ambient+Δθ (uniform input, lateral cancels).
	if math.Abs(ss[2]-want) > 1e-6 {
		t.Errorf("steady state %g, want %g", ss[2], want)
	}
	// Transient starts at ambient and rises monotonically.
	if nw.Temp(2) != units.AmbientK {
		t.Errorf("initial temp %g, want ambient", nw.Temp(2))
	}
	prev := nw.Temp(2)
	for k := 0; k < 5; k++ {
		if err := nw.Advance(2e-3, nil); err != nil {
			t.Fatal(err)
		}
		cur := nw.Temp(2)
		if cur < prev-1e-12 {
			t.Errorf("temperature fell during warm-up: %g -> %g", prev, cur)
		}
		prev = cur
	}
	if prev <= units.AmbientK+0.1 {
		t.Error("no visible warm-up after 10 ms")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, buses := range []int{1, 3} {
		ok := GridConfig{Buses: buses, Wires: 3, Ambient: 300, RVertical: 1, HeatCapacity: 1}
		bad := []func(*GridConfig){
			func(c *GridConfig) { c.Buses = 0 },
			func(c *GridConfig) { c.Wires = 0 },
			func(c *GridConfig) { c.Ambient = 0 },
			func(c *GridConfig) { c.RVertical = -1 },
			func(c *GridConfig) { c.HeatCapacity = 0 },
			func(c *GridConfig) { c.RLateral = -1 },
			func(c *GridConfig) { c.RBus = -1 },
			func(c *GridConfig) { c.InterLayerPower = -1 },
		}
		for i, mutate := range bad {
			cfg := ok
			mutate(&cfg)
			if _, err := NewGrid(cfg); err == nil {
				t.Errorf("K=%d: config %d accepted: %+v", buses, i, cfg)
			}
		}
		// Zero lateral and inter-bus resistances mean no coupling.
		if _, err := NewGrid(ok); err != nil {
			t.Errorf("K=%d: config without lateral coupling rejected: %v", buses, err)
		}
	}
}

// TestNonFiniteInputsRejected: a NaN or infinite float passes a bare
// x <= 0 or x < 0 test, so each of these used to be accepted and, through
// the next Advance, turn temperatures into NaN or infinity. Every one must
// now fail, through the config, the options, SetAmbient and SetTemps.
func TestNonFiniteInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cfg := func(mutate func(*GridConfig)) func() error {
		return func() error {
			c := GridConfig{Buses: 2, Wires: 3, Ambient: 300, RVertical: 1, HeatCapacity: 1, RLateral: 1, RBus: 1}
			mutate(&c)
			_, err := NewGrid(c)
			return err
		}
	}
	node := func(opts NodeOptions) func() error {
		return func() error {
			_, err := NewFromNode(itrs.N130, 4, opts)
			return err
		}
	}
	grid := func(opts GridNodeOptions) func() error {
		return func() error {
			_, err := NewGridFromNode(itrs.N130, 4, 2, opts)
			return err
		}
	}
	onGrid := func(f func(*Grid) error) func() error {
		return func() error {
			g, _ := twinGrids(t, shape{3, 1})
			return f(g)
		}
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"GridConfig.Ambient +Inf", cfg(func(c *GridConfig) { c.Ambient = inf })},
		{"GridConfig.Ambient NaN", cfg(func(c *GridConfig) { c.Ambient = nan })},
		{"GridConfig.RVertical +Inf", cfg(func(c *GridConfig) { c.RVertical = inf })},
		{"GridConfig.HeatCapacity +Inf", cfg(func(c *GridConfig) { c.HeatCapacity = inf })},
		{"GridConfig.RLateral NaN", cfg(func(c *GridConfig) { c.RLateral = nan })},
		{"GridConfig.RBus NaN", cfg(func(c *GridConfig) { c.RBus = nan })},
		{"GridConfig.InterLayerPower +Inf", cfg(func(c *GridConfig) { c.InterLayerPower = inf })},
		{"NodeOptions.Ambient +Inf", node(NodeOptions{Ambient: inf})},
		{"NodeOptions.Ambient NaN", node(NodeOptions{Ambient: nan})},
		{"NodeOptions.ViaAreaFraction NaN", node(NodeOptions{ViaAreaFraction: nan})},
		{"HeatCapacityOptions.ExtraDielectricArea NaN", node(NodeOptions{HeatCapacity: &HeatCapacityOptions{ExtraDielectricArea: nan}})},
		{"GridNodeOptions.BusGapPitches NaN", grid(GridNodeOptions{BusGapPitches: nan})},
		{"GridNodeOptions.BusGapPitches +Inf", grid(GridNodeOptions{BusGapPitches: inf})},
		{"SetAmbient NaN", onGrid(func(g *Grid) error { return g.SetAmbient(nan) })},
		{"SetAmbient +Inf", onGrid(func(g *Grid) error { return g.SetAmbient(inf) })},
		{"SetTemps NaN", onGrid(func(g *Grid) error { return g.SetTemps([]float64{300, nan, 300}) })},
		{"SetTemps -Inf", onGrid(func(g *Grid) error { return g.SetTemps([]float64{300, 300, math.Inf(-1)}) })},
	}
	for _, c := range cases {
		if err := c.run(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestAdvanceValidation runs the input checks on a one-bus network.
func TestAdvanceValidation(t *testing.T) { checkAdvanceValidation(t, shape{3, 1}) }

// TestGridAdvanceValidation runs the input checks on a banded grid.
func TestGridAdvanceValidation(t *testing.T) { checkAdvanceValidation(t, shape{2, 2}) }

// checkAdvanceValidation: Advance rejects a zero or non-finite dt and a
// wrong-length or non-finite or negative power, SteadyState the same
// power, and neither moves the temperatures.
func checkAdvanceValidation(t *testing.T, s shape) {
	t.Helper()
	g, _ := twinGrids(t, s)
	n := g.N()
	p := make([]float64, n)
	for i := range p {
		p[i] = float64(i + 1)
	}
	if err := g.Advance(1e-3, p); err != nil {
		t.Fatal(err)
	}
	before := g.Temps(nil)
	// A NaN dt used to slip past the dt <= 0 test and turn every
	// temperature into NaN; an infinite one is no interval either.
	for _, dt := range []float64{0, math.NaN(), math.Inf(1)} {
		if err := g.Advance(dt, nil); err == nil {
			t.Errorf("%v: dt %g accepted", s, dt)
		}
	}
	if err := g.Advance(1e-3, []float64{1}); err == nil {
		t.Errorf("%v: short power slice accepted", s)
	}
	if _, err := g.SteadyState([]float64{1}); err == nil {
		t.Errorf("%v: short power slice accepted by SteadyState", s)
	}
	// Failure injection: NaN, Inf and negative powers are rejected
	// before they can corrupt the state, by Advance and SteadyState.
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		q := make([]float64, n)
		q[0] = bad
		if err := g.Advance(1e-3, q); err == nil {
			t.Errorf("%v: power %g accepted", s, bad)
		}
		q[0], q[n-1] = 0, bad
		if _, err := g.SteadyState(q); err == nil {
			t.Errorf("%v: power %g accepted by SteadyState", s, bad)
		}
	}
	for i, temp := range g.Temps(nil) {
		if math.Float64bits(temp) != math.Float64bits(before[i]) {
			t.Errorf("%v node %d moved from %g to %g K on rejected input", s, i, before[i], temp)
		}
	}
}

func TestViaConduction(t *testing.T) {
	g := NodeGeometry(itrs.N130)
	base, err := g.VerticalResistanceWithVias(0)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := g.VerticalResistance()
	if base != plain {
		t.Errorf("zero vias %g != plain Eq. 6 %g", base, plain)
	}
	prev := base
	for _, f := range []float64{1e-4, 1e-3, 1e-2} {
		r, err := g.VerticalResistanceWithVias(f)
		if err != nil {
			t.Fatal(err)
		}
		if r >= prev {
			t.Errorf("via fraction %g did not reduce resistance: %g >= %g", f, r, prev)
		}
		prev = r
	}
	// Even 1% via coverage collapses the resistance (copper is ~600x
	// more conductive than the ILD) — the quantitative form of the
	// paper's "long via separations cause higher temperatures".
	dense, _ := g.VerticalResistanceWithVias(0.01)
	if dense > base/3 {
		t.Errorf("1%% vias only reduced R from %g to %g", base, dense)
	}
	if _, err := g.VerticalResistanceWithVias(-0.1); err == nil {
		t.Error("negative via fraction accepted")
	}
	if _, err := g.VerticalResistanceWithVias(1); err == nil {
		t.Error("via fraction 1 accepted")
	}
	// End to end: a via-rich bus runs cooler at the same power.
	hot, err := NewFromNode(itrs.N130, 5, NodeOptions{DisableInterLayer: true})
	if err != nil {
		t.Fatal(err)
	}
	cool, err := NewFromNode(itrs.N130, 5, NodeOptions{DisableInterLayer: true, ViaAreaFraction: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{5, 5, 5, 5, 5}
	hs, err := hot.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cool.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if cs[2] >= hs[2] {
		t.Errorf("vias did not cool the bus: %g vs %g", cs[2], hs[2])
	}
}

// TestSetAmbient: after SetAmbient an unpowered network drifts to the
// new ambient.
func TestSetAmbient(t *testing.T) {
	for _, s := range []shape{{3, 1}, {3, 2}} {
		g, err := NewGridFromNode(itrs.N130, s.wires, s.buses, GridNodeOptions{NodeOptions: NodeOptions{DisableInterLayer: true}})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetAmbient(330); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := g.Advance(5e-3, nil); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < s.buses; k++ {
			if avg := g.BusAvgTemp(k); math.Abs(avg-330) > 1e-3 {
				t.Errorf("%v bus %d settled at %g, want 330", s, k, avg)
			}
		}
	}
}

func TestSetTempsAndStats(t *testing.T) {
	nw := newTestNetwork(t, 4)
	if err := nw.SetTemps([]float64{300, 310, 305, 302}); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetTemps([]float64{1, 2}); err == nil {
		t.Error("short SetTemps accepted")
	}
	maxT, idx := nw.MaxTemp()
	if maxT != 310 || idx != 1 {
		t.Errorf("MaxTemp = %g@%d, want 310@1", maxT, idx)
	}
	if avg := nw.AvgTemp(); math.Abs(avg-304.25) > 1e-12 {
		t.Errorf("AvgTemp = %g, want 304.25", avg)
	}
	got := nw.Temps(nil)
	if len(got) != 4 || got[1] != 310 {
		t.Errorf("Temps = %v", got)
	}
}

func TestIdleCoolingTimescale(t *testing.T) {
	// The Fig. 5 property: a ~1M-cycle idle gap (0.6 ms at 1.68 GHz) must
	// not appreciably cool the bus, because the network time constant is
	// ~10 ms with the dielectric heat mass.
	nw, err := NewFromNode(itrs.N130, 5, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{3, 3, 3, 3, 3}
	// Warm up to near steady state.
	for k := 0; k < 100; k++ {
		if err := nw.Advance(2e-3, p); err != nil {
			t.Fatal(err)
		}
	}
	before := nw.AvgTemp()
	// Idle for 1M cycles at 1.68 GHz.
	idle := 1e6 / itrs.N130.ClockHz
	if err := nw.Advance(idle, nil); err != nil {
		t.Fatal(err)
	}
	after := nw.AvgTemp()
	drop := before - after
	riseAboveAmbient := before - units.AmbientK
	if drop > 0.1*riseAboveAmbient {
		t.Errorf("idle gap cooled the bus by %.3f K of a %.3f K rise (>10%%)", drop, riseAboveAmbient)
	}
}
