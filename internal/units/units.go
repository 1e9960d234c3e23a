// Package units collects the physical constants and unit helpers used by
// the bus energy and thermal models. All model code works in SI units:
// meters, seconds, volts, joules, watts, kelvin, farads, ohms.
package units

// Physical constants.
const (
	// Eps0 is the permittivity of free space in F/m.
	Eps0 = 8.8541878128e-12

	// RhoCopper is the effective resistivity of copper interconnect in
	// ohm-meters. Nanoscale copper lines have higher resistivity than
	// bulk (1.68e-8) due to surface and grain-boundary scattering; 2.2e-8
	// is the value commonly used for ITRS-2001-era global wires and is
	// consistent with Table 1 of the paper (rwire = rho*l/(w*t)).
	RhoCopper = 2.2e-8

	// CvCopper is the volumetric heat capacity of copper in J/(m^3*K):
	// density 8960 kg/m^3 times specific heat 385 J/(kg*K).
	CvCopper = 8960.0 * 385.0

	// KCopper is the thermal conductivity of copper in W/(m*K).
	KCopper = 400.0

	// AmbientK is the paper's ambient (substrate) temperature: 45 C.
	AmbientK = 318.15

	// ZeroCelsiusK is 0 C expressed in kelvin, the offset behind
	// AmbientK (= 45 C) above.
	ZeroCelsiusK = 273.15

	// CrepPerCint is the paper's rounded repeater-capacitance ratio: after
	// Eqs. 1-2 delay-optimal insertion gives Crep = sqrt(0.4/0.7)*Cint,
	// which the paper rounds to "effectively, Crep = 0.75 x Cint"
	// (Sec. 3.1.1). Exact sizing uses repeater.CrepFactor; this constant
	// exists so the rounded paper value is never re-typed as a literal.
	CrepPerCint = 0.75

	// ElmoreDistributed is the distributed-RC coefficient of the Elmore
	// 50% delay estimate used by the paper's repeater Eqs. 1-2
	// (0.4*Rint*Cint term, after Bakoglu).
	ElmoreDistributed = 0.4

	// ElmoreLumped is the lumped (step-response) RC coefficient of the
	// same delay estimate (0.7*R*C terms, ln 2 rounded up).
	ElmoreLumped = 0.7
)

// Scale prefixes for readability at call sites.
const (
	Nano  = 1e-9
	Micro = 1e-6
	Milli = 1e-3
	Kilo  = 1e3
	Mega  = 1e6
	Giga  = 1e9
	Pico  = 1e-12
	Femto = 1e-15
)
