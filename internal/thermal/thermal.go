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
// with all quantities per unit length of the bus. There is one network
// type, Grid: K such buses side by side, adjacent buses coupled through
// the inter-bus dielectric (see grid.go). Network is the K = 1 view that
// indexes wires directly. Within an interval the system is linear and
// time-invariant, so Advance applies the exact affine propagator —
// machine-precision for any dt. At K = 1 that is a tridiagonal Thomas
// solve for the steady state plus one dense matvec; at K > 1 it works in
// the Kronecker-factored eigenbasis. That propagator is the only
// integrator. The paper's own method, classical fourth-order Runge-Kutta
// with automatic sub-stepping (Sec. 5.3), is the tests' oracle: it
// integrates Derivatives, the Eqs. 3-4 right-hand side, and must agree
// with Advance.
package thermal

import (
	"fmt"
	"math"

	"nanobus/internal/itrs"
	"nanobus/internal/units"
)

// Network is the thermal-RC network of one bus: a K = 1 Grid whose
// accessors take a wire index instead of a (bus, wire) pair. Advance,
// SteadyState, Temps, SetTemps, SetAmbient and Reset are the Grid's.
type Network struct{ Grid }

// NewFromNode builds the thermal network of a wires-wide global bus on the
// given technology node: NewGridFromNode with one bus.
func NewFromNode(node itrs.Node, wires int, opts NodeOptions) (*Network, error) {
	g, err := NewGridFromNode(node, wires, 1, GridNodeOptions{NodeOptions: opts})
	if err != nil {
		return nil, err
	}
	return &Network{*g}, nil
}

// Temp returns wire i's current temperature in kelvin.
func (nw *Network) Temp(i int) float64 { return nw.Grid.Temp(0, i) }

// MaxTemp returns the hottest wire's temperature and index.
func (nw *Network) MaxTemp() (float64, int) { return nw.BusMaxTemp(0) }

// AvgTemp returns the mean wire temperature.
func (nw *Network) AvgTemp() float64 { return nw.BusAvgTemp(0) }

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

// sign is the range a checked value must lie in.
type sign int

const (
	finite      sign = iota // any finite value
	nonNegative             // finite and >= 0
	positive                // finite and > 0
)

// value is one named float input for checkValues.
type value struct {
	name string
	x    float64
	sign sign
}

// checkValues is the one validator of the package's float inputs
// (configuration, options, ambient and temperatures): each value must be
// finite and in its sign range.
func checkValues(vs ...value) error {
	for _, v := range vs {
		var ok bool
		switch v.sign {
		case positive:
			ok = v.x > 0
		case nonNegative:
			ok = v.x >= 0
		default:
			ok = !math.IsNaN(v.x)
		}
		if !ok || math.IsInf(v.x, 0) {
			return fmt.Errorf("thermal: %s %g is not finite%s", v.name, v.x, [...]string{"", " and non-negative", " and positive"}[v.sign])
		}
	}
	return nil
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
	if !(viaFraction >= 0 && viaFraction < 1) {
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

// NodeOptions configure NewFromNode (and, embedded in GridNodeOptions,
// NewGridFromNode).
type NodeOptions struct {
	// Ambient overrides the paper's 318.15 K when positive; zero keeps
	// it.
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
