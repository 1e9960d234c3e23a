// Package itrs provides the ITRS-2001 technology parameters used throughout
// the bus energy and thermal models. The values reproduce Table 1 of
// Sundaresan & Mahapatra (HPCA 2005) for the topmost-layer (global)
// interconnect of the 130, 90, 65 and 45 nm nodes, together with derived
// quantities (wire resistance, repeater parameters) and a synthesized
// metal-layer stack used by the inter-layer heating model (Eq. 7).
package itrs

import (
	"errors"
	"fmt"
	"math"

	"nanobus/internal/units"
)

// Node describes one technology node's global-interconnect parameters.
// All geometric values are in meters, electrical values in SI units, and
// per-unit-length values are per meter of wire, exactly as in Table 1 of
// the paper (converted from nm, pF/m, kohm/m).
type Node struct {
	// Name is the conventional node label, e.g. "130nm".
	Name string
	// FeatureNm is the node's feature size in nanometers (130, 90, 65, 45).
	FeatureNm int

	// MetalLayers is the total number of metal layers.
	MetalLayers int
	// WireWidth is the global wire width w in meters. Per ITRS the wire
	// spacing equals the width (Table 1 note), so Spacing() == WireWidth.
	WireWidth float64
	// WireThickness is the global wire thickness t in meters.
	WireThickness float64
	// ILDHeight is the inter-layer dielectric height t_ild in meters.
	ILDHeight float64
	// EpsRel is the relative permittivity of the dielectric.
	EpsRel float64
	// KILD is the thermal conductivity of the dielectric in W/(m*K).
	// The paper uses a single dielectric conductivity for both the
	// inter-layer (ILD) and inter-metal (IMD) dielectric.
	KILD float64
	// ClockHz is the on-chip clock frequency in Hz.
	ClockHz float64
	// Vdd is the supply voltage in volts.
	Vdd float64
	// JMax is the maximum wire current density in A/m^2.
	JMax float64
	// CLine is the wire self (ground) capacitance in F/m.
	CLine float64
	// CInter is the adjacent-wire coupling capacitance in F/m.
	CInter float64
	// RWire is the wire resistance in ohm/m.
	RWire float64
}

// Spacing returns the inter-wire spacing s in meters. Per the ITRS layout
// assumption used by the paper, spacing equals wire width.
func (n Node) Spacing() float64 { return n.WireWidth }

// Pitch returns the wire pitch (width + spacing) in meters.
func (n Node) Pitch() float64 { return n.WireWidth + n.Spacing() }

// CTotal returns the total wire capacitance Cint = cline + 2*cinter in F/m
// (Sec. 3.1.1 of the paper), the load seen by repeater sizing.
func (n Node) CTotal() float64 { return n.CLine + 2*n.CInter }

// AspectRatio returns thickness/width of the global wire.
func (n Node) AspectRatio() float64 { return n.WireThickness / n.WireWidth }

// CyclePeriod returns the clock period in seconds.
func (n Node) CyclePeriod() float64 { return 1 / n.ClockHz }

// ResistancePerMeter recomputes rho*1/(w*t) and should agree with RWire;
// it is used by tests to validate the table's self-consistency.
func (n Node) ResistancePerMeter() float64 {
	return units.RhoCopper / (n.WireWidth * n.WireThickness)
}

// Validate checks that the node's parameters are physically sensible.
func (n Node) Validate() error {
	switch {
	case n.Name == "":
		return fmt.Errorf("itrs: node has empty name")
	case n.MetalLayers <= 0:
		return fmt.Errorf("itrs: %s: metal layers %d <= 0", n.Name, n.MetalLayers)
	case n.WireWidth <= 0 || n.WireThickness <= 0 || n.ILDHeight <= 0:
		return fmt.Errorf("itrs: %s: non-positive geometry", n.Name)
	case n.EpsRel < 1:
		return fmt.Errorf("itrs: %s: relative permittivity %.3g < 1", n.Name, n.EpsRel)
	case n.KILD <= 0:
		return fmt.Errorf("itrs: %s: non-positive dielectric conductivity", n.Name)
	case n.ClockHz <= 0 || n.Vdd <= 0 || n.JMax <= 0:
		return fmt.Errorf("itrs: %s: non-positive electrical parameter", n.Name)
	case n.CLine <= 0 || n.CInter <= 0 || n.RWire <= 0:
		return fmt.Errorf("itrs: %s: non-positive RC parameter", n.Name)
	}
	return nil
}

// Table 1 of the paper, in SI units.
var (
	// N130 is the 130 nm node.
	N130 = Node{
		Name: "130nm", FeatureNm: 130,
		MetalLayers:   8,
		WireWidth:     335 * units.Nano,
		WireThickness: 670 * units.Nano,
		ILDHeight:     724 * units.Nano,
		EpsRel:        3.3,
		KILD:          0.6,
		ClockHz:       1.68 * units.Giga,
		Vdd:           1.1,
		JMax:          0.96e10, // 0.96 MA/cm^2
		CLine:         44.06 * units.Pico,
		CInter:        91.72 * units.Pico,
		RWire:         98.02 * units.Kilo,
	}
	// N90 is the 90 nm node.
	N90 = Node{
		Name: "90nm", FeatureNm: 90,
		MetalLayers:   9,
		WireWidth:     230 * units.Nano,
		WireThickness: 482 * units.Nano,
		ILDHeight:     498 * units.Nano,
		EpsRel:        2.8,
		KILD:          0.19,
		ClockHz:       3.99 * units.Giga,
		Vdd:           1.0,
		JMax:          1.5e10,
		CLine:         32.77 * units.Pico,
		CInter:        76.84 * units.Pico,
		RWire:         198.45 * units.Kilo,
	}
	// N65 is the 65 nm node.
	N65 = Node{
		Name: "65nm", FeatureNm: 65,
		MetalLayers:   10,
		WireWidth:     145 * units.Nano,
		WireThickness: 319 * units.Nano,
		ILDHeight:     329 * units.Nano,
		EpsRel:        2.5,
		KILD:          0.12,
		ClockHz:       6.73 * units.Giga,
		Vdd:           0.7,
		JMax:          2.1e10,
		CLine:         25.07 * units.Pico,
		CInter:        68.42 * units.Pico,
		RWire:         475.62 * units.Kilo,
	}
	// N45 is the 45 nm node.
	N45 = Node{
		Name: "45nm", FeatureNm: 45,
		MetalLayers:   10,
		WireWidth:     103 * units.Nano,
		WireThickness: 236 * units.Nano,
		ILDHeight:     243 * units.Nano,
		EpsRel:        2.1,
		KILD:          0.07,
		ClockHz:       11.51 * units.Giga,
		Vdd:           0.6,
		JMax:          2.7e10,
		CLine:         19.05 * units.Pico,
		CInter:        58.12 * units.Pico,
		RWire:         905.05 * units.Kilo,
	}
)

// Nodes returns the paper's four technology nodes ordered from the oldest
// (130 nm) to the newest (45 nm).
func Nodes() []Node { return []Node{N130, N90, N65, N45} }

// ByName returns the node with the given label ("130nm", "90nm", "65nm",
// "45nm"); the second result reports whether it was found.
func ByName(name string) (Node, bool) {
	for _, n := range Nodes() {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// ErrUnknownNode is wrapped by the error Resolve returns for unrecognised
// node labels; test with errors.Is.
var ErrUnknownNode = errors.New("itrs: unknown node")

// Resolve is ByName with a typed error: it returns the node with the given
// label, or an error wrapping ErrUnknownNode listing the valid labels.
func Resolve(name string) (Node, error) {
	if n, ok := ByName(name); ok {
		return n, nil
	}
	return Node{}, fmt.Errorf("%w %q (have %v)", ErrUnknownNode, name, Names())
}

// Names returns the available node labels, oldest first.
func Names() []string {
	ns := Nodes()
	names := make([]string, len(ns))
	for i, n := range ns {
		names[i] = n.Name
	}
	return names
}

// MetalLayer describes one layer of the synthesized metal stack used by the
// inter-layer heating correction (Eq. 7). Lower layers are thinner and more
// finely pitched than the global layer.
type MetalLayer struct {
	// Index is 1 for the lowest metal layer (M1).
	Index int
	// Thickness is the wire thickness t_j in meters.
	Thickness float64
	// Width is the wire width in meters.
	Width float64
	// Spacing is the inter-wire spacing in meters.
	Spacing float64
	// ILDBelow is the thickness of the inter-layer dielectric directly
	// below this layer in meters.
	ILDBelow float64
	// Coverage is the metal coverage factor alpha_j (dimensionless); the
	// paper assumes 0.5 everywhere.
	Coverage float64
}

// DefaultCoverage is the paper's coverage factor alpha = 0.5 (Sec. 4.1.2).
const DefaultCoverage = 0.5

// LayerStack synthesizes a plausible per-layer metal stack for the node.
// ITRS-2001 (and the paper's Table 1) give only topmost-layer geometry, so
// the lower layers are generated by geometric interpolation: M1 has
// feature-sized half-pitch and aspect ratio ~1.6, and each dimension grows
// geometrically up to the global layer's Table 1 values. This is the
// modeling substitution documented in DESIGN.md; the inter-layer heating
// correction depends only on per-layer t_j, alpha_j and ILD thicknesses, so
// a smooth interpolated stack reproduces the correction's magnitude.
func (n Node) LayerStack() []MetalLayer {
	nl := n.MetalLayers
	stack := make([]MetalLayer, nl)
	// Layer 1 geometry from the feature size.
	w1 := float64(n.FeatureNm) * units.Nano
	t1 := 1.6 * w1
	ild1 := 1.0 * w1
	for i := 0; i < nl; i++ {
		// Geometric interpolation factor from M1 (f=0) to Mtop (f=1).
		f := 0.0
		if nl > 1 {
			f = float64(i) / float64(nl-1)
		}
		stack[i] = MetalLayer{
			Index:     i + 1,
			Thickness: geomInterp(t1, n.WireThickness, f),
			Width:     geomInterp(w1, n.WireWidth, f),
			Spacing:   geomInterp(w1, n.Spacing(), f),
			ILDBelow:  geomInterp(ild1, n.ILDHeight, f),
			Coverage:  DefaultCoverage,
		}
	}
	return stack
}

// geomInterp interpolates geometrically between a (f=0) and b (f=1).
func geomInterp(a, b, f float64) float64 {
	if a <= 0 || b <= 0 {
		return a + (b-a)*f
	}
	return a * math.Pow(b/a, f)
}
