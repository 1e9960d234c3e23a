// Package thermal implements the paper's bus thermal model (Sec. 4): an
// equivalent thermal-RC network with one node per bus wire, vertical
// conduction to the (constant-temperature) layer below through the
// inter-layer dielectric, lateral conduction between adjacent wires through
// the inter-metal dielectric, and a constant inter-layer heating input from
// the metal layers below (Eq. 7).
//
// The nodal heat-balance equations are the paper's Eqs. 3-4:
//
//	edge wires:   Pi = Ci*dθi/dt + (θi-θ0)/Ri + (θi-θnbr)/Rinter
//	middle wires: Pi = Ci*dθi/dt + (θi-θ0)/Ri + (2θi-θi-1-θi+1)/Rinter
//
// with all quantities per unit length of the bus. Within an interval the
// system is linear and time-invariant, so Advance applies the exact affine
// propagator built from the eigendecomposition of the symmetrized
// conductance system (see propagator.go) — machine-precision for any dt.
// That propagator is the only integrator. The paper's own method, classical
// fourth-order Runge-Kutta with automatic sub-stepping (Sec. 5.3), is the
// tests' oracle: it integrates Derivatives, the Eqs. 3-4 right-hand side,
// and must agree with Advance. An analytic steady-state solver
// (tridiagonal Thomas algorithm) cross-validates the transients.
package thermal

import (
	"fmt"
	"math"

	"nanobus/internal/itrs"
	"nanobus/internal/linalg"
	"nanobus/internal/units"
)

// Network is the thermal-RC network of one bus. Every wire shares the
// same coefficients.
type Network struct {
	n       int
	ambient float64
	// gVert is the vertical conductance of a wire, 1/Ri in W/(K*m) (per
	// unit length); gLat the wire-to-wire lateral conductance 1/Rinter
	// (0 without lateral coupling).
	gVert, gLat float64
	// heatCap is the per-wire thermal capacitance in J/(K*m).
	heatCap float64
	// interPower is the constant inter-layer heating input per wire in W/m
	// (Eq. 7 expressed as a power source; see NewFromNode).
	interPower float64

	temps []float64
	// dynPower is the dynamic (switching) power input during the current
	// Advance call, W/m.
	dynPower []float64

	// ssSub/ssDiag/ssSup is the tridiagonal conductance matrix G used by
	// the steady-state solver and the exact propagator (Thomas-algorithm
	// layout).
	ssSub, ssDiag, ssSup []float64

	// prop is the exact propagator, built on the first Advance.
	prop *propagator
}

// Config assembles a Network directly from uniform per-wire parameters.
// Most callers should use NewFromNode instead.
type Config struct {
	// Wires is the number of bus lines.
	Wires int
	// Ambient is the constant substrate/reference temperature in kelvin.
	Ambient float64
	// RVertical is the per-wire vertical resistance (K*m/W).
	RVertical float64
	// RLateral is the wire-to-wire lateral resistance (K*m/W); zero
	// disables lateral coupling (the pre-paper models' assumption).
	RLateral float64
	// HeatCapacity is the per-wire thermal capacitance (J/(K*m)).
	HeatCapacity float64
	// InterLayerPower is the constant heating input per wire (W/m).
	InterLayerPower float64
}

// New builds a Network from the configuration.
func New(cfg Config) (*Network, error) {
	n := cfg.Wires
	if n < 1 {
		return nil, fmt.Errorf("thermal: wires %d < 1", n)
	}
	if cfg.Ambient <= 0 {
		return nil, fmt.Errorf("thermal: non-positive ambient %g K", cfg.Ambient)
	}
	if cfg.RVertical <= 0 {
		return nil, fmt.Errorf("thermal: RVertical %g <= 0", cfg.RVertical)
	}
	if cfg.HeatCapacity <= 0 {
		return nil, fmt.Errorf("thermal: HeatCapacity %g <= 0", cfg.HeatCapacity)
	}
	if cfg.RLateral < 0 {
		return nil, fmt.Errorf("thermal: RLateral %g < 0", cfg.RLateral)
	}
	if cfg.InterLayerPower < 0 {
		return nil, fmt.Errorf("thermal: negative inter-layer power %g", cfg.InterLayerPower)
	}
	nw := &Network{
		n:          n,
		ambient:    cfg.Ambient,
		gVert:      1 / cfg.RVertical,
		heatCap:    cfg.HeatCapacity,
		interPower: cfg.InterLayerPower,
		temps:      make([]float64, n),
		dynPower:   make([]float64, n),
		ssSub:      make([]float64, n),
		ssDiag:     make([]float64, n),
		ssSup:      make([]float64, n),
	}
	for i := range nw.temps {
		nw.temps[i] = cfg.Ambient
		nw.ssDiag[i] = nw.gVert
	}
	if cfg.RLateral > 0 && n > 1 {
		nw.gLat = 1 / cfg.RLateral
		for i := 0; i < n; i++ {
			if i > 0 {
				nw.ssDiag[i] += nw.gLat
				nw.ssSub[i] = -nw.gLat
			}
			if i < n-1 {
				nw.ssDiag[i] += nw.gLat
				nw.ssSup[i] = -nw.gLat
			}
		}
	}
	return nw, nil
}

// N returns the number of wires.
func (nw *Network) N() int { return nw.n }

// Ambient returns the reference temperature in kelvin.
func (nw *Network) Ambient() float64 { return nw.ambient }

// Temps copies the current wire temperatures (kelvin) into dst and returns
// it; a nil dst allocates.
func (nw *Network) Temps(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, nw.n)
	}
	copy(dst, nw.temps)
	return dst
}

// Temp returns wire i's current temperature in kelvin.
func (nw *Network) Temp(i int) float64 { return nw.temps[i] }

// MaxTemp returns the hottest wire's temperature and index.
func (nw *Network) MaxTemp() (float64, int) {
	best, idx := nw.temps[0], 0
	for i, t := range nw.temps {
		if t > best {
			best, idx = t, i
		}
	}
	return best, idx
}

// AvgTemp returns the mean wire temperature.
func (nw *Network) AvgTemp() float64 {
	s := 0.0
	for _, t := range nw.temps {
		s += t
	}
	return s / float64(nw.n)
}

// SetAmbient changes the substrate/reference temperature mid-simulation.
// The paper's model assumes a constant substrate, but notes (Sec. 6, citing
// Skadron et al.) that substrate temperatures swing by ~10 K during
// benchmark execution; stepping the ambient between intervals models that
// combined effect.
func (nw *Network) SetAmbient(k float64) error {
	if k <= 0 {
		return fmt.Errorf("thermal: non-positive ambient %g K", k)
	}
	nw.ambient = k
	return nil
}

// SetTemps overwrites the wire temperatures (e.g. to restart from a saved
// state); the slice length must be N.
func (nw *Network) SetTemps(t []float64) error {
	if len(t) != nw.n {
		return fmt.Errorf("thermal: SetTemps length %d, want %d", len(t), nw.n)
	}
	copy(nw.temps, t)
	return nil
}

// Dim is the dimension of the ode.System that Derivatives defines.
func (nw *Network) Dim() int { return nw.n }

// Derivatives is the ode.System right-hand side: the paper's Eqs. 3-4
// rearranged for dθ/dt under the dynamic power of the last Advance, with
// the inter-layer heating added as a constant power source. Advance does
// not use it; it is the reference that the tests' RK4 oracle integrates.
func (nw *Network) Derivatives(t float64, y, dydt []float64) {
	n := nw.n
	for i := 0; i < n; i++ {
		q := nw.dynPower[i] + nw.interPower - (y[i]-nw.ambient)*nw.gVert
		if i > 0 {
			q -= (y[i] - y[i-1]) * nw.gLat
		}
		if i < n-1 {
			q -= (y[i] - y[i+1]) * nw.gLat
		}
		dydt[i] = q / nw.heatCap
	}
}

// Advance moves the network over dt seconds with the given per-wire
// dynamic power (W/m, piecewise constant over the interval — the paper's
// 100K-cycle interval power). power may be nil for an idle interval.
//
// The step is the exact affine propagator (see propagator.go): one
// tridiagonal steady-state solve plus a matvec through the precomputed
// eigenbasis, exact to machine precision for any dt.
func (nw *Network) Advance(dt float64, power []float64) error {
	if err := checkStep(dt, power, nw.n); err != nil {
		return err
	}
	loadPower(nw.dynPower, power)
	if nw.prop == nil {
		p, err := newPropagator(nw)
		if err != nil {
			return err
		}
		nw.prop = p
	}
	return nw.prop.advance(nw, dt)
}

// checkStep validates one Advance: dt must be finite and positive, and
// power must pass checkPower.
func checkStep(dt float64, power []float64, n int) error {
	if !(dt > 0) || math.IsInf(dt, 1) {
		return fmt.Errorf("thermal: dt %g is not finite and positive", dt)
	}
	return checkPower(power, n)
}

// checkPower validates a dynamic power input of n nodes: nil (idle) or n
// finite, non-negative values in W/m.
func checkPower(power []float64, n int) error {
	if power == nil {
		return nil
	}
	if len(power) != n {
		return fmt.Errorf("thermal: power length %d, want %d", len(power), n)
	}
	for i, p := range power {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("thermal: invalid power %g on node %d", p, i)
		}
	}
	return nil
}

// loadPower copies a validated power input into dst; nil zeroes it.
func loadPower(dst, power []float64) {
	if power == nil {
		clear(dst)
		return
	}
	copy(dst, power)
}

// Reset returns every wire to the current ambient temperature. The network
// structure, the precomputed conductances and the spectral propagator are
// kept, so sweep drivers can reuse one network across runs for free.
func (nw *Network) Reset() {
	for i := range nw.temps {
		nw.temps[i] = nw.ambient
	}
}

// SteadyState returns the equilibrium temperatures for a constant per-wire
// dynamic power (W/m, nil meaning zero), solving the tridiagonal balance
//
//	(θi-θ0)/Ri + Σlat (θi-θnbr)/Rinter = Pi + Pinter,i
//
// with the Thomas algorithm. It does not modify the network state.
func (nw *Network) SteadyState(power []float64) ([]float64, error) {
	n := nw.n
	if err := checkPower(power, n); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	err := nw.steadyInto(power, make([]float64, n), make([]float64, n), make([]float64, n), out)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// steadyInto is the allocation-free steady-state solve over the
// precomputed conductance matrix: rhs, cp and dp are scratch, out receives
// the temperatures. The propagator calls this once per Advance.
func (nw *Network) steadyInto(power, rhs, cp, dp, out []float64) error {
	for i := 0; i < nw.n; i++ {
		r := nw.interPower + nw.gVert*nw.ambient
		if power != nil {
			r += power[i]
		}
		rhs[i] = r
	}
	return linalg.SolveTridiagonalInto(nw.ssSub, nw.ssDiag, nw.ssSup, rhs, cp, dp, out)
}

// WireGeometry bundles the geometric and material inputs of Eqs. 5-6.
type WireGeometry struct {
	// Width and Thickness are the wire cross-section in meters.
	Width, Thickness float64
	// Spacing is the inter-wire spacing in meters.
	Spacing float64
	// ILDHeight is the dielectric thickness below the wire in meters.
	ILDHeight float64
	// KDielectric is the dielectric thermal conductivity in W/(m*K),
	// used for both the ILD (vertical) and IMD (lateral) paths as in the
	// paper's Table 1.
	KDielectric float64
}

// VerticalResistance evaluates Eq. 6: the spreading term plus the
// rectangular-flow term, per unit length (K*m/W).
func (g WireGeometry) VerticalResistance() (float64, error) {
	if g.Width <= 0 || g.Thickness <= 0 || g.Spacing < 0 || g.ILDHeight <= 0 || g.KDielectric <= 0 {
		return 0, fmt.Errorf("thermal: invalid wire geometry %+v", g)
	}
	rspr := math.Log((g.Width+g.Spacing)/g.Width) / (2 * g.KDielectric)
	rect := (g.ILDHeight - 0.5*g.Spacing) / (g.KDielectric * (g.Width + g.Spacing))
	if rect < 0 {
		// Very thin ILD relative to spacing: the trapezoidal spreading
		// consumes the full height; clamp the rectangular term.
		rect = 0
	}
	return rspr + rect, nil
}

// VerticalResistanceWithVias augments Eq. 6 with a parallel conduction
// path through vias. The paper's Sec. 1 notes that "long via separations
// in upper metal layers contribute to higher average wire temperatures
// (vias are normally better thermal conductors than surrounding low-K
// dielectrics)": copper vias short-circuit part of the ILD. viaFraction
// is the fraction of the wire's footprint area occupied by via metal
// (0 = no vias, the plain Eq. 6 value; realistic sparse global vias are
// 1e-3..1e-2).
func (g WireGeometry) VerticalResistanceWithVias(viaFraction float64) (float64, error) {
	if viaFraction < 0 || viaFraction >= 1 {
		return 0, fmt.Errorf("thermal: via fraction %g outside [0,1)", viaFraction)
	}
	base, err := g.VerticalResistance()
	if err != nil {
		return 0, err
	}
	if viaFraction == 0 { //nanolint:ignore floateq zero means no via path is configured
		return base, nil
	}
	// Parallel via path per unit length: kCu * (footprint width * f) / t_ild.
	gVia := units.KCopper * (g.Width + g.Spacing) * viaFraction / g.ILDHeight
	return 1 / (1/base + gVia), nil
}

// LateralResistance evaluates the paper's Sec. 4.1.1 inter-wire resistance
// Rinter = s/(kimd*t), per unit length (K*m/W).
func (g WireGeometry) LateralResistance() (float64, error) {
	if g.Spacing <= 0 || g.Thickness <= 0 || g.KDielectric <= 0 {
		return 0, fmt.Errorf("thermal: invalid lateral geometry %+v", g)
	}
	return g.Spacing / (g.KDielectric * g.Thickness), nil
}

// HeatCapacityOptions control the per-wire thermal capacitance.
type HeatCapacityOptions struct {
	// ExtraDielectricArea is the effective cross-sectional area (m^2) of
	// surrounding dielectric whose heat mass is lumped with the wire.
	// The paper's lumped Ci = Cs*t*w alone yields microsecond time
	// constants, inconsistent with the multi-millisecond transients its
	// own Figs. 4-5 show; physically, the slow component comes from heat
	// diffusing into the dielectric (diffusion length ~50 um over the
	// plotted intervals). DefaultExtraDielectricArea reproduces the
	// paper's time scales; set to 0 for the strict wire-only reading.
	ExtraDielectricArea float64
}

// DefaultExtraDielectricArea is the calibrated effective dielectric area:
// a ~50 um thermal diffusion cloud around the wire, giving the bus the
// ~10 ms time constant implied by the paper's Figs. 4-5.
const DefaultExtraDielectricArea = 2.5e-9 // m^2

// CvDielectric is the volumetric heat capacity of SiO2-class dielectrics
// in J/(m^3*K) (2200 kg/m^3 * 730 J/(kg*K)).
const CvDielectric = 2200.0 * 730.0

// HeatCapacity returns Ci = Cs*t*w (Sec. 4.1) plus the configured
// dielectric heat mass, in J/(K*m).
func (g WireGeometry) HeatCapacity(opts HeatCapacityOptions) float64 {
	return units.CvCopper*g.Thickness*g.Width + CvDielectric*opts.ExtraDielectricArea
}

// NodeGeometry extracts the WireGeometry of a technology node's global
// layer.
func NodeGeometry(node itrs.Node) WireGeometry {
	return WireGeometry{
		Width:       node.WireWidth,
		Thickness:   node.WireThickness,
		Spacing:     node.Spacing(),
		ILDHeight:   node.ILDHeight,
		KDielectric: node.KILD,
	}
}

// NodeOptions configure NewFromNode.
type NodeOptions struct {
	// Ambient overrides the paper's 318.15 K when positive.
	Ambient float64
	// HeatCapacity options; the zero value uses
	// DefaultExtraDielectricArea.
	HeatCapacity *HeatCapacityOptions
	// DisableLateral removes inter-wire conduction (the ablation the
	// paper runs against prior models).
	DisableLateral bool
	// DisableInterLayer removes the Eq. 7 heating input.
	DisableInterLayer bool
	// ViaAreaFraction adds a parallel copper-via conduction path through
	// the ILD (see VerticalResistanceWithVias). Zero means no vias — the
	// paper's pessimistic upper-layer assumption.
	ViaAreaFraction float64
}

// NewFromNode builds the thermal network of a wires-wide global bus on the
// given technology node, with Eq. 6 vertical resistances, Sec. 4.1.1
// lateral resistances, and the Eq. 7 inter-layer heating expressed as the
// equivalent constant power Δθ/Ri into each wire (so the network warms from
// ambient toward ambient+Δθ with its natural time constant, as in the
// paper's Fig. 4 transients).
func NewFromNode(node itrs.Node, wires int, opts NodeOptions) (*Network, error) {
	g := NodeGeometry(node)
	rv, err := g.VerticalResistanceWithVias(opts.ViaAreaFraction)
	if err != nil {
		return nil, err
	}
	hcOpts := HeatCapacityOptions{ExtraDielectricArea: DefaultExtraDielectricArea}
	if opts.HeatCapacity != nil {
		hcOpts = *opts.HeatCapacity
	}
	cfg := Config{
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
		dTheta := InterLayerRise(node)
		cfg.InterLayerPower = dTheta / rv
	}
	return New(cfg)
}
