package thermal

import (
	"nanobus/internal/ode"
)

// rk4Advance is the tests' oracle for Advance: the paper's integrator
// (Sec. 5.3), classical RK4 sub-stepped at half the fastest time
// constant, run on the Eqs. 3-4 right-hand side (Derivatives). It moves g
// dt seconds under power exactly as Advance would, and agrees with the
// exact propagator to RK4's truncation error.
func rk4Advance(g *Grid, dt float64, power []float64) error {
	if err := checkStep(dt, power, len(g.dynPower)); err != nil {
		return err
	}
	loadPower(g.dynPower, power)
	// An interior node: all conduction paths in parallel.
	tau := g.heatCap / (g.gVert + 2*g.gLat + 2*g.gBus)
	_, err := ode.NewRK4(tau/2).Integrate(g, 0, dt, g.temps)
	return err
}
