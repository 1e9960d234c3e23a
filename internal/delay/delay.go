// Package delay analyses the performance side effects the paper attributes
// to wire heating (Secs. 1, 5.3.1): copper resistivity grows with
// temperature, so hotter wires have larger RC delay; and it implements the
// paper's Sec. 1 scoping check — that long global lines in ITRS
// technologies are over-damped RLC systems, so an RC-only energy model is
// accurate (the justification cites Mui/Banerjee/Mehrotra [10]).
package delay

import (
	"fmt"
	"math"

	"nanobus/internal/itrs"
	"nanobus/internal/repeater"
	"nanobus/internal/units"
)

// TempCoeffCu is copper's temperature coefficient of resistivity (1/K)
// around room temperature.
const TempCoeffCu = 0.0039

// RefTempK is the reference temperature of the Table 1 resistances.
const RefTempK = 293.15

// ResistivityAt scales a reference resistivity from RefTempK to tempK with
// the linear model rho(T) = rho0 * (1 + alpha*(T - T0)).
func ResistivityAt(rho0, tempK float64) float64 {
	return rho0 * (1 + TempCoeffCu*(tempK-RefTempK))
}

// DelayAt returns the repeated-line delay of a length-meter global wire on
// the node when the wire sits at tempK, along with the delay at the
// reference temperature. The repeater plan is re-evaluated with the hotter
// wire resistance (designers fix the plan at design time, so the same
// h and k are kept; only the wire RC changes).
func DelayAt(node itrs.Node, length, tempK float64) (hot, ref float64, err error) {
	if tempK <= 0 {
		return 0, 0, fmt.Errorf("delay: non-positive temperature %g", tempK)
	}
	plan, err := repeater.InsertDefault(node, length)
	if err != nil {
		return 0, 0, err
	}
	ref = plan.WireDelay

	scale := ResistivityAt(1, tempK) // rho(T)/rho0
	inv := repeater.DefaultInverter(node)
	segs := math.Max(1, math.Round(plan.CountK))
	cseg := node.CTotal() * length / segs
	rseg := node.RWire * scale * length / segs
	segDelay := units.ElmoreLumped*(inv.R0/plan.SizeH)*(cseg+plan.SizeH*inv.C0) +
		units.ElmoreDistributed*rseg*cseg + units.ElmoreLumped*rseg*plan.SizeH*inv.C0
	return segs * segDelay, ref, nil
}

// InductancePerMeter estimates the loop inductance (H/m) of a global wire
// over its return plane with the standard microstrip form
// L = (mu0/2pi) * ln(8h/w + w/(4h)), where h is the dielectric height and
// w the wire width. Good to tens of percent — sufficient for a damping
// classification.
func InductancePerMeter(node itrs.Node) float64 {
	const mu0 = 4 * math.Pi * 1e-7
	h := node.ILDHeight
	w := node.WireWidth
	return mu0 / (2 * math.Pi) * math.Log(8*h/w+w/(4*h))
}

// DampingFactor returns the RLC damping factor of a line of the given
// length: zeta = (R/2) * sqrt(C/L). zeta > 1 means over-damped, where the
// paper's RC-only energy model is accurate.
func DampingFactor(node itrs.Node, length float64) (float64, error) {
	if length <= 0 {
		return 0, fmt.Errorf("delay: non-positive length %g", length)
	}
	r := node.RWire * length
	c := node.CTotal() * length
	l := InductancePerMeter(node) * length
	return r / 2 * math.Sqrt(c/l), nil
}

// Report is the per-node thermal-delay analysis.
type Report struct {
	Node itrs.Node
	// RefDelay and HotDelay are the 10 mm line delays (s) at the
	// reference temperature and at HotTempK.
	RefDelay, HotDelay float64
	// HotTempK is the evaluated wire temperature.
	HotTempK float64
	// DegradationPct is the relative delay growth.
	DegradationPct float64
	// Damping is the full-line RLC damping factor (> 1: over-damped).
	Damping float64
}

// Analyze produces the report for a node at the given wire temperature,
// using the paper's 10 mm line.
func Analyze(node itrs.Node, hotTempK float64) (Report, error) {
	const length = 0.01
	hot, ref, err := DelayAt(node, length, hotTempK)
	if err != nil {
		return Report{}, err
	}
	zeta, err := DampingFactor(node, length)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Node:           node,
		RefDelay:       ref,
		HotDelay:       hot,
		HotTempK:       hotTempK,
		DegradationPct: 100 * (hot - ref) / ref,
		Damping:        zeta,
	}, nil
}

// AnalyzeAll runs Analyze for all four ITRS nodes at the paper's observed
// steady-state temperature band (ambient + ~20 K) unless hotTempK > 0.
func AnalyzeAll(hotTempK float64) ([]Report, error) {
	if hotTempK <= 0 {
		hotTempK = units.AmbientK + 20
	}
	var out []Report
	for _, n := range itrs.Nodes() {
		r, err := Analyze(n, hotTempK)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
