package thermal

import (
	"fmt"

	"nanobus/internal/ode"
)

// rk4Advance is the tests' oracle for Advance: the paper's integrator
// (Sec. 5.3), classical RK4 sub-stepped at half the fastest time
// constant, run on the Eqs. 3-4 right-hand side (Derivatives). It moves a
// *Network or *Grid dt seconds under power exactly as Advance would, and
// agrees with the exact propagator to RK4's truncation error.
func rk4Advance(sys ode.System, dt float64, power []float64) error {
	var dynPower, temps []float64
	var tau float64
	switch s := sys.(type) {
	case *Network:
		// The fastest wire conducts through the vertical path and up to
		// two lateral ones.
		g := s.gVert
		for i := 1; i < s.n && i < 3; i++ {
			g += s.gLat
		}
		dynPower, temps, tau = s.dynPower, s.temps, s.heatCap/g
	case *Grid:
		// An interior node: all conduction paths in parallel.
		dynPower, temps, tau = s.dynPower, s.temps, s.heatCap/(s.gVert+2*s.gLat+2*s.gBus)
	default:
		return fmt.Errorf("rk4Advance: unsupported system %T", sys)
	}
	if err := checkStep(dt, power, len(dynPower)); err != nil {
		return err
	}
	loadPower(dynPower, power)
	_, err := ode.NewRK4(tau/2).Integrate(sys, 0, dt, temps)
	return err
}
