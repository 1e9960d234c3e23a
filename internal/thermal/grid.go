// Banded multi-bus thermal grid. A full-chip interconnect layer runs K
// parallel buses side by side on the top metal; each bus is the paper's
// W-wire thermal-RC chain, and adjacent buses exchange heat through the
// inter-bus dielectric. The thermal diffusion length (~50 um, the same
// cloud that calibrates DefaultExtraDielectricArea) is larger than a bus
// footprint (32 wires x ~1 um pitch), so each wire of bus k sees bus k+1
// as a nearly isothermal slab: the inter-bus path is modeled mean-field
// as a uniform per-wire-pair coupling between wire j of bus k and wire j
// of bus k+1, with the slab conductance split evenly over the W parallel
// channels.
//
// That turns the conductance system into a banded matrix of bandwidth W
// over the K*W grid — no longer tridiagonal — but one with Kronecker-sum
// structure. With uniform per-wire heat capacitance c (NewFromNode always
// broadcasts uniform coefficients) the symmetrized system is
//
//	S = I_K (x) A  +  B (x) I_W
//
// where A is the W x W intra-bus tridiagonal (vertical + wire-to-wire
// lateral conductance over c) and B is the K x K inter-bus tridiagonal
// (bus-to-bus coupling over c). Eigenvectors of a Kronecker sum factor as
// Q_B (x) Q_A and eigenvalues add: lambda_{k,j} = beta_k + alpha_j. The
// exact interval propagator therefore generalizes with two small
// eigendecompositions (W x W and K x K) instead of one dense K*W x K*W
// one, and each Advance is four small dense matrix products:
//
//	U   = Q_B^T X Q_A          (to eigenbasis)
//	U  *= exp(-(beta+alpha)dt) (elementwise decay)
//	X   = Q_B U Q_A^T          (back)
//
// applied to the temperature deviation from the banded steady state
// (solved spectrally the same way with 1/lambda in place of the decay).
// As for Network, this propagator is the only integrator; the tests check
// it against the paper's sub-stepped RK4 on the flattened banded system.
package thermal

import (
	"fmt"
	"math"

	"nanobus/internal/itrs"
	"nanobus/internal/linalg"
	"nanobus/internal/units"
)

// DefaultBusGapPitches is the default inter-bus edge gap, expressed in
// intra-bus wire pitches. Global buses are routed with a few tracks of
// clearance; eight pitches keeps the coupling weak but visible (a hot
// neighbor raises a quiet bus by a few kelvin at steady state).
const DefaultBusGapPitches = 8.0

// GridConfig assembles a Grid directly from uniform per-wire parameters.
// Most callers should use NewGridFromNode instead.
type GridConfig struct {
	// Buses (K) and Wires (W) shape the grid; temperatures, powers and
	// snapshots use bus-major [K*W] slabs (bus k wire j at index k*W+j).
	Buses, Wires int
	// Ambient is the constant substrate/reference temperature in kelvin.
	Ambient float64
	// RVertical is the per-wire vertical resistance (K*m/W).
	RVertical float64
	// RLateral is the intra-bus wire-to-wire lateral resistance (K*m/W);
	// zero disables intra-bus coupling.
	RLateral float64
	// RBus is the inter-bus per-wire-pair lateral resistance (K*m/W)
	// between wire j of adjacent buses; zero disables inter-bus coupling
	// (the grid then decouples into K independent Networks).
	RBus float64
	// HeatCapacity is the per-wire thermal capacitance (J/(K*m)).
	HeatCapacity float64
	// InterLayerPower is the constant heating input per wire (W/m).
	InterLayerPower float64
}

// Grid is the banded thermal network of K parallel buses.
type Grid struct {
	buses, wires int
	ambient      float64
	gVert        float64
	gLat         float64 // intra-bus wire-to-wire conductance (0 = none)
	gBus         float64 // inter-bus per-wire-pair conductance (0 = none)
	heatCap      float64
	interPower   float64

	temps    []float64 // [K*W] bus-major
	dynPower []float64

	// Spectral factorization of the Kronecker sum.
	alpha, beta        []float64 // eigenvalues of A and B (ascending)
	qa, qat, qb, qbt   *linalg.Matrix
	lastDt             float64
	expL               []float64      // [K*W] exp(-(beta_k+alpha_j)*lastDt)
	xm, um, tm, sm, pm *linalg.Matrix // K x W scratch
}

// NewGrid builds a Grid from the configuration.
func NewGrid(cfg GridConfig) (*Grid, error) {
	k, w := cfg.Buses, cfg.Wires
	if k < 1 {
		return nil, fmt.Errorf("thermal: grid buses %d < 1", k)
	}
	if w < 1 {
		return nil, fmt.Errorf("thermal: grid wires %d < 1", w)
	}
	if cfg.Ambient <= 0 {
		return nil, fmt.Errorf("thermal: non-positive ambient %g K", cfg.Ambient)
	}
	if cfg.RVertical <= 0 {
		return nil, fmt.Errorf("thermal: grid RVertical %g <= 0", cfg.RVertical)
	}
	if cfg.HeatCapacity <= 0 {
		return nil, fmt.Errorf("thermal: grid HeatCapacity %g <= 0", cfg.HeatCapacity)
	}
	if cfg.RLateral < 0 || cfg.RBus < 0 {
		return nil, fmt.Errorf("thermal: negative lateral resistance (RLateral %g, RBus %g)", cfg.RLateral, cfg.RBus)
	}
	if cfg.InterLayerPower < 0 {
		return nil, fmt.Errorf("thermal: negative inter-layer power %g", cfg.InterLayerPower)
	}
	g := &Grid{
		buses:      k,
		wires:      w,
		ambient:    cfg.Ambient,
		gVert:      1 / cfg.RVertical,
		heatCap:    cfg.HeatCapacity,
		interPower: cfg.InterLayerPower,
		temps:      make([]float64, k*w),
		dynPower:   make([]float64, k*w),
	}
	if cfg.RLateral > 0 && w > 1 {
		g.gLat = 1 / cfg.RLateral
	}
	if cfg.RBus > 0 && k > 1 {
		g.gBus = 1 / cfg.RBus
	}
	for i := range g.temps {
		g.temps[i] = cfg.Ambient
	}
	if err := g.factor(); err != nil {
		return nil, err
	}
	return g, nil
}

// factor eigendecomposes the two Kronecker factors A/c (intra-bus) and
// B/c (inter-bus) and allocates the per-advance scratch.
func (g *Grid) factor() error {
	k, w, c := g.buses, g.wires, g.heatCap
	da := make([]float64, w)
	ea := make([]float64, maxInt(w-1, 0))
	for j := 0; j < w; j++ {
		d := g.gVert
		if j > 0 {
			d += g.gLat
		}
		if j < w-1 {
			d += g.gLat
		}
		da[j] = d / c
	}
	for j := 0; j+1 < w; j++ {
		ea[j] = -g.gLat / c
	}
	alpha, qa, err := linalg.SymTridiagEigen(da, ea)
	if err != nil {
		return fmt.Errorf("thermal: grid intra-bus eigendecomposition: %w", err)
	}
	db := make([]float64, k)
	eb := make([]float64, maxInt(k-1, 0))
	for i := 0; i < k; i++ {
		var d float64
		if i > 0 {
			d += g.gBus
		}
		if i < k-1 {
			d += g.gBus
		}
		db[i] = d / c
	}
	for i := 0; i+1 < k; i++ {
		eb[i] = -g.gBus / c
	}
	beta, qb, err := linalg.SymTridiagEigen(db, eb)
	if err != nil {
		return fmt.Errorf("thermal: grid inter-bus eigendecomposition: %w", err)
	}
	g.alpha, g.qa, g.qat = alpha, qa, qa.Transpose()
	g.beta, g.qb, g.qbt = beta, qb, qb.Transpose()
	g.expL = make([]float64, k*w)
	g.lastDt = 0
	g.xm = linalg.NewRect(k, w)
	g.um = linalg.NewRect(k, w)
	g.tm = linalg.NewRect(k, w)
	g.sm = linalg.NewRect(k, w)
	g.pm = linalg.NewRect(k, w)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Buses returns K, the number of buses.
func (g *Grid) Buses() int { return g.buses }

// Wires returns W, the per-bus wire count.
func (g *Grid) Wires() int { return g.wires }

// N returns the total node count K*W.
func (g *Grid) N() int { return g.buses * g.wires }

// Ambient returns the reference temperature in kelvin.
func (g *Grid) Ambient() float64 { return g.ambient }

// SetAmbient changes the substrate/reference temperature mid-simulation.
func (g *Grid) SetAmbient(kelvin float64) error {
	if kelvin <= 0 {
		return fmt.Errorf("thermal: non-positive ambient %g K", kelvin)
	}
	g.ambient = kelvin
	return nil
}

// Temps copies the bus-major [K*W] temperature slab into dst and returns
// it; a nil dst allocates.
func (g *Grid) Temps(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(g.temps))
	}
	copy(dst, g.temps)
	return dst
}

// SetTemps overwrites the temperature slab (e.g. checkpoint restore); the
// slice length must be K*W.
func (g *Grid) SetTemps(t []float64) error {
	if len(t) != len(g.temps) {
		return fmt.Errorf("thermal: SetTemps length %d, want %d", len(t), len(g.temps))
	}
	copy(g.temps, t)
	return nil
}

// BusTemps copies bus k's wire temperatures into dst and returns it; a
// nil dst allocates.
func (g *Grid) BusTemps(k int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, g.wires)
	}
	copy(dst, g.temps[k*g.wires:(k+1)*g.wires])
	return dst
}

// Temp returns the temperature of wire j on bus k.
func (g *Grid) Temp(k, j int) float64 { return g.temps[k*g.wires+j] }

// BusMaxTemp returns bus k's hottest wire temperature and wire index.
func (g *Grid) BusMaxTemp(k int) (float64, int) {
	row := g.temps[k*g.wires : (k+1)*g.wires]
	best, idx := row[0], 0
	for j, t := range row {
		if t > best {
			best, idx = t, j
		}
	}
	return best, idx
}

// BusAvgTemp returns bus k's mean wire temperature.
func (g *Grid) BusAvgTemp(k int) float64 {
	row := g.temps[k*g.wires : (k+1)*g.wires]
	s := 0.0
	for _, t := range row {
		s += t
	}
	return s / float64(g.wires)
}

// MaxTemp returns the grid-wide hottest temperature with its bus and wire
// indices.
func (g *Grid) MaxTemp() (temp float64, bus, wire int) {
	best, idx := g.temps[0], 0
	for i, t := range g.temps {
		if t > best {
			best, idx = t, i
		}
	}
	return best, idx / g.wires, idx % g.wires
}

// Reset returns every node to the current ambient temperature, keeping
// the spectral factorization.
func (g *Grid) Reset() {
	for i := range g.temps {
		g.temps[i] = g.ambient
	}
}

// Dim is the dimension of the ode.System that Derivatives defines over
// the flattened grid.
func (g *Grid) Dim() int { return g.buses * g.wires }

// Derivatives is the ode.System right-hand side: the banded heat balance
// under the dynamic power of the last Advance, with intra-bus neighbors at
// stride 1 and inter-bus neighbors at stride W. Advance does not use it;
// it is the reference that the tests' RK4 oracle integrates.
func (g *Grid) Derivatives(t float64, y, dydt []float64) {
	k, w := g.buses, g.wires
	for b := 0; b < k; b++ {
		base := b * w
		for j := 0; j < w; j++ {
			i := base + j
			q := g.dynPower[i] + g.interPower - (y[i]-g.ambient)*g.gVert
			if g.gLat != 0 { //nanolint:ignore floateq zero is the exact no-lateral-coupling sentinel, never a computed value
				if j > 0 {
					q -= (y[i] - y[i-1]) * g.gLat
				}
				if j < w-1 {
					q -= (y[i] - y[i+1]) * g.gLat
				}
			}
			if g.gBus != 0 { //nanolint:ignore floateq zero is the exact decoupled-grid sentinel (DisableBusCoupling), never a computed value
				if b > 0 {
					q -= (y[i] - y[i-w]) * g.gBus
				}
				if b < k-1 {
					q -= (y[i] - y[i+w]) * g.gBus
				}
			}
			dydt[i] = q / g.heatCap
		}
	}
}

// Advance moves the grid over dt seconds with the given bus-major [K*W]
// dynamic power slab (W/m, piecewise constant over the interval). power
// may be nil for an idle interval.
//
//nanolint:hotpath one call per sampling interval for all K buses; allocates nothing
func (g *Grid) Advance(dt float64, power []float64) error {
	if err := checkStep(dt, power, len(g.dynPower)); err != nil {
		return err
	}
	loadPower(g.dynPower, power)
	return g.spectralAdvance(dt)
}

// spectralAdvance applies the exact Kronecker-sum propagator:
// X(dt) = X* + invT(exp(-Lambda dt) .* T(X(0) - X*)) with T the
// two-sided eigenbasis transform U = Q_B^T X Q_A.
func (g *Grid) spectralAdvance(dt float64) error {
	k, w := g.buses, g.wires
	if dt != g.lastDt { //nanolint:ignore floateq dt is the exact cache key; intervals repeat bit-identical lengths
		for b := 0; b < k; b++ {
			bb := g.beta[b]
			row := g.expL[b*w : (b+1)*w]
			for j := 0; j < w; j++ {
				row[j] = math.Exp(-(bb + g.alpha[j]) * dt)
			}
		}
		g.lastDt = dt
	}
	if err := g.steady(g.dynPower); err != nil {
		return err
	}
	// Transient: decay the deviation from steady state in the eigenbasis.
	for b := 0; b < k; b++ {
		xrow := g.xm.Row(b)
		srow := g.sm.Row(b)
		for j := 0; j < w; j++ {
			xrow[j] = g.temps[b*w+j] - srow[j]
		}
	}
	if err := g.toEigen(g.xm, g.um); err != nil {
		return err
	}
	for b := 0; b < k; b++ {
		urow := g.um.Row(b)
		erow := g.expL[b*w : (b+1)*w]
		for j := 0; j < w; j++ {
			urow[j] *= erow[j]
		}
	}
	if err := g.fromEigen(g.um, g.xm); err != nil {
		return err
	}
	for b := 0; b < k; b++ {
		xrow := g.xm.Row(b)
		srow := g.sm.Row(b)
		for j := 0; j < w; j++ {
			g.temps[b*w+j] = srow[j] + xrow[j]
		}
	}
	return nil
}

// steady solves the banded steady state X* for the power slab (nil
// meaning zero dynamic power) into sm: c * (Q Lambda Q^T) X* = RHS,
// spectrally. It touches only the pm, um, tm and sm scratch.
func (g *Grid) steady(power []float64) error {
	k, w := g.buses, g.wires
	for b := 0; b < k; b++ {
		prow := g.pm.Row(b)
		for j := 0; j < w; j++ {
			prow[j] = g.interPower + g.gVert*g.ambient
			if power != nil {
				prow[j] += power[b*w+j]
			}
		}
	}
	if err := g.toEigen(g.pm, g.um); err != nil {
		return err
	}
	c := g.heatCap
	for b := 0; b < k; b++ {
		bb := g.beta[b]
		urow := g.um.Row(b)
		for j := 0; j < w; j++ {
			urow[j] /= c * (bb + g.alpha[j])
		}
	}
	return g.fromEigen(g.um, g.sm)
}

// toEigen computes dst = Q_B^T src Q_A through the tm scratch.
func (g *Grid) toEigen(src, dst *linalg.Matrix) error {
	if err := g.qbt.MulInto(src, g.tm); err != nil {
		return err
	}
	return g.tm.MulInto(g.qa, dst)
}

// fromEigen computes dst = Q_B src Q_A^T through the tm scratch.
func (g *Grid) fromEigen(src, dst *linalg.Matrix) error {
	if err := g.qb.MulInto(src, g.tm); err != nil {
		return err
	}
	return g.tm.MulInto(g.qat, dst)
}

// SteadyState returns the equilibrium bus-major temperature slab for a
// constant power slab (nil meaning zero dynamic power). It does not
// modify the grid state.
func (g *Grid) SteadyState(power []float64) ([]float64, error) {
	if err := checkPower(power, len(g.dynPower)); err != nil {
		return nil, err
	}
	if err := g.steady(power); err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(g.temps))
	for b := 0; b < g.buses; b++ {
		out = append(out, g.sm.Row(b)...)
	}
	return out, nil
}

// GridNodeOptions configure NewGridFromNode.
type GridNodeOptions struct {
	// NodeOptions carry the single-bus knobs (ambient, heat capacity,
	// lateral/inter-layer ablations, vias).
	NodeOptions
	// BusGapPitches is the edge-to-edge gap between adjacent buses in
	// intra-bus wire pitches; zero selects DefaultBusGapPitches. The
	// mean-field per-wire-pair inter-bus resistance is W times the slab
	// resistance of that gap (the slab conductance splits evenly over the
	// W parallel per-wire channels).
	BusGapPitches float64
	// DisableBusCoupling removes inter-bus conduction, decoupling the
	// grid into K independent buses (the ablation that recovers K
	// separate Networks).
	DisableBusCoupling bool
}

// NewGridFromNode builds the banded thermal grid of K wires-wide global
// buses on the given technology node. Per-bus coefficients match
// NewFromNode exactly (same Eq. 6 vertical resistance, Sec. 4.1.1
// lateral resistance, Eq. 7 inter-layer heating), so a grid with
// DisableBusCoupling reproduces K independent NewFromNode networks.
func NewGridFromNode(node itrs.Node, wires, buses int, opts GridNodeOptions) (*Grid, error) {
	g := NodeGeometry(node)
	rv, err := g.VerticalResistanceWithVias(opts.ViaAreaFraction)
	if err != nil {
		return nil, err
	}
	hcOpts := HeatCapacityOptions{ExtraDielectricArea: DefaultExtraDielectricArea}
	if opts.HeatCapacity != nil {
		hcOpts = *opts.HeatCapacity
	}
	cfg := GridConfig{
		Buses:        buses,
		Wires:        wires,
		Ambient:      units.AmbientK,
		RVertical:    rv,
		HeatCapacity: g.HeatCapacity(hcOpts),
	}
	if opts.Ambient > 0 {
		cfg.Ambient = opts.Ambient
	}
	if !opts.DisableLateral {
		rl, err := g.LateralResistance()
		if err != nil {
			return nil, err
		}
		cfg.RLateral = rl
	}
	if !opts.DisableInterLayer {
		cfg.InterLayerPower = InterLayerRise(node) / rv
	}
	if !opts.DisableBusCoupling && buses > 1 {
		pitches := opts.BusGapPitches
		if pitches <= 0 {
			pitches = DefaultBusGapPitches
		}
		pitch := node.WireWidth + node.Spacing()
		gap := pitches * pitch
		slab := WireGeometry{
			Width:       g.Width,
			Thickness:   g.Thickness,
			Spacing:     gap,
			ILDHeight:   g.ILDHeight,
			KDielectric: g.KDielectric,
		}
		rSlab, err := slab.LateralResistance()
		if err != nil {
			return nil, err
		}
		cfg.RBus = float64(wires) * rSlab
	}
	return NewGrid(cfg)
}
