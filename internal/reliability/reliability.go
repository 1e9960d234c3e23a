// Package reliability quantifies the electromigration-lifetime impact of
// the per-wire temperatures the thermal model produces. The paper motivates
// per-line modeling precisely with this analysis (Secs. 1, 5.3.1, 6):
// worst-case uniform-temperature models mispredict interconnect lifetime,
// and the hottest wires of an actively switching bus are "susceptible to
// higher thermal stresses and electromigration failure".
//
// The model is Black's equation, the standard EM lifetime form the paper's
// references [2, 5] build on:
//
//	MTTF ∝ (1/j^n) * exp(Ea / (k_B * T))
//
// with current-density exponent n = 2 and activation energy Ea = 0.9 eV
// for Cu interconnect. Absolute lifetimes need process constants the paper
// does not give, so the package reports lifetimes relative to a reference
// operating point (typically the ambient-temperature, jmax case).
package reliability

import (
	"fmt"
	"math"
)

// Boltzmann constant in eV/K.
const kBeV = 8.617333262e-5

// Params configure Black's equation.
type Params struct {
	// ActivationEV is the EM activation energy in eV; zero means 0.9
	// (copper).
	ActivationEV float64
	// CurrentExponent is Black's n; zero means 2.
	CurrentExponent float64
}

func (p Params) activation() float64 {
	if p.ActivationEV == 0 { //nanolint:ignore floateq zero means the parameter was left unset
		return 0.9
	}
	return p.ActivationEV
}

func (p Params) exponent() float64 {
	if p.CurrentExponent == 0 { //nanolint:ignore floateq zero means the parameter was left unset
		return 2
	}
	return p.CurrentExponent
}

// RelativeMTTF returns the wire's mean time to failure relative to a
// reference condition: MTTF(T, j) / MTTF(Tref, jref). Values below 1 mean
// the wire ages faster than the reference. Current densities are in A/m^2
// and temperatures in kelvin.
func RelativeMTTF(p Params, tempK, jA float64, refTempK, refJA float64) (float64, error) {
	if tempK <= 0 || refTempK <= 0 {
		return 0, fmt.Errorf("reliability: non-positive temperature (%g, %g)", tempK, refTempK)
	}
	if jA < 0 || refJA <= 0 {
		return 0, fmt.Errorf("reliability: invalid current density (%g, %g)", jA, refJA)
	}
	ea := p.activation()
	n := p.exponent()
	jTerm := 1.0
	if jA > 0 {
		jTerm = math.Pow(refJA/jA, n)
	} else {
		// An idle wire carries no EM stress; lifetime is effectively
		// unbounded relative to any active reference.
		return math.Inf(1), nil
	}
	tTerm := math.Exp(ea / kBeV * (1/tempK - 1/refTempK))
	return jTerm * tTerm, nil
}

// WireAssessment is one wire's EM summary.
type WireAssessment struct {
	// Wire is the index within the bus.
	Wire int
	// TempK is the wire temperature used.
	TempK float64
	// CurrentA is the RMS current density in A/m^2.
	CurrentA float64
	// RelMTTF is the lifetime relative to the reference condition.
	RelMTTF float64
}

// BusAssessment grades a whole bus.
type BusAssessment struct {
	Wires []WireAssessment
	// WorstWire indexes the shortest-lived wire.
	WorstWire int
	// WorstRelMTTF is its relative lifetime.
	WorstRelMTTF float64
	// UniformModelRelMTTF is the lifetime a uniform-temperature model
	// (every wire at the average temperature) would predict for the same
	// worst wire — the paper's argued source of lifetime misprediction.
	UniformModelRelMTTF float64
}

// AssessBus grades each wire of a bus given per-wire temperatures (K) and
// RMS current densities (A/m^2), against a reference condition (refTempK,
// refJA).
func AssessBus(p Params, temps, currents []float64, refTempK, refJA float64) (*BusAssessment, error) {
	if len(temps) == 0 || len(temps) != len(currents) {
		return nil, fmt.Errorf("reliability: temps/currents length mismatch (%d vs %d)",
			len(temps), len(currents))
	}
	out := &BusAssessment{Wires: make([]WireAssessment, len(temps))}
	avgT := 0.0
	worst := math.Inf(1)
	for i := range temps {
		m, err := RelativeMTTF(p, temps[i], currents[i], refTempK, refJA)
		if err != nil {
			return nil, fmt.Errorf("wire %d: %w", i, err)
		}
		out.Wires[i] = WireAssessment{Wire: i, TempK: temps[i], CurrentA: currents[i], RelMTTF: m}
		avgT += temps[i]
		if m < worst {
			worst = m
			out.WorstWire = i
		}
	}
	out.WorstRelMTTF = worst
	avgT /= float64(len(temps))
	uni, err := RelativeMTTF(p, avgT, currents[out.WorstWire], refTempK, refJA)
	if err != nil {
		return nil, err
	}
	out.UniformModelRelMTTF = uni
	return out, nil
}

// RMSCurrentDensity converts a wire's average switching power (watts over
// a window) into the equivalent RMS current density in its cross-section:
// P = I_rms^2 * R  =>  j_rms = sqrt(P / (rho * length)) / (w*t) ... with
// per-unit-length quantities: j = sqrt(p' / (rho)) / (w*t) where p' is
// W/m and rho the resistivity. Geometry in meters.
func RMSCurrentDensity(powerPerMeter, rho, width, thickness float64) (float64, error) {
	if powerPerMeter < 0 || rho <= 0 || width <= 0 || thickness <= 0 {
		return 0, fmt.Errorf("reliability: invalid inputs p'=%g rho=%g w=%g t=%g",
			powerPerMeter, rho, width, thickness)
	}
	// p' = j^2 * (w*t) * rho  (I = j*w*t, R' = rho/(w*t), p' = I^2 R').
	return math.Sqrt(powerPerMeter / (rho * width * thickness)), nil
}
