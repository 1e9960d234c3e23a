// Package ode provides initial-value-problem integrators for the thermal
// network. The paper integrates its thermal-RC equations with a classical
// fourth-order Runge-Kutta method (Sec. 5.3). Production code advances the
// network with internal/thermal's exact propagators instead, so this
// package is imported only by tests and benchmarks: RK4 is the oracle the
// propagators must match, and an adaptive Dormand-Prince RK45 and an
// explicit Euler method serve cross-validation and ablation studies.
// scripts/ode_guard.sh fails if a non-test package imports it.
package ode

import (
	"errors"
	"fmt"
	"math"
)

// System is the right-hand side of an ODE system: dydt receives the
// derivative dy/dt at time t and state y. Implementations must treat y as
// read-only and fully overwrite dydt.
type System interface {
	// Dim returns the number of state variables.
	Dim() int
	// Derivatives computes dy/dt into dydt.
	Derivatives(t float64, y, dydt []float64)
}

// Func adapts a plain function to the System interface.
type Func struct {
	N int
	F func(t float64, y, dydt []float64)
}

// Dim returns the configured dimension.
func (f Func) Dim() int { return f.N }

// Derivatives invokes the wrapped function.
func (f Func) Derivatives(t float64, y, dydt []float64) { f.F(t, y, dydt) }

// Integrator advances a System from (t, y) over a time span.
type Integrator interface {
	// Integrate advances y in place from t0 to t1 and returns the number
	// of derivative evaluations performed.
	Integrate(s System, t0, t1 float64, y []float64) (evals int, err error)
}

// ErrBadSpan is returned for a non-positive integration span.
var ErrBadSpan = errors.New("ode: integration span must be positive")

// RK4 is the classical fixed-step fourth-order Runge-Kutta integrator used
// by the paper. MaxStep bounds the internal step; the span is divided into
// equal steps no larger than MaxStep.
type RK4 struct {
	// MaxStep is the largest internal step size in seconds. Zero means
	// take the whole span in a single step.
	MaxStep float64

	k1, k2, k3, k4, tmp []float64
}

// NewRK4 returns an RK4 integrator with the given maximum internal step.
func NewRK4(maxStep float64) *RK4 { return &RK4{MaxStep: maxStep} }

func (r *RK4) ensure(n int) {
	if len(r.k1) < n {
		r.k1 = make([]float64, n)
		r.k2 = make([]float64, n)
		r.k3 = make([]float64, n)
		r.k4 = make([]float64, n)
		r.tmp = make([]float64, n)
	}
}

// Integrate advances y from t0 to t1 with fixed RK4 steps.
func (r *RK4) Integrate(s System, t0, t1 float64, y []float64) (int, error) {
	span := t1 - t0
	if span <= 0 {
		return 0, ErrBadSpan
	}
	n := s.Dim()
	if len(y) != n {
		return 0, fmt.Errorf("ode: state length %d, want %d", len(y), n)
	}
	steps := 1
	if r.MaxStep > 0 && span > r.MaxStep {
		// Ceil, not trunc+1: an exact multiple of MaxStep should not pay
		// an extra (and smaller) step.
		steps = int(math.Ceil(span / r.MaxStep))
	}
	h := span / float64(steps)
	r.ensure(n)
	t := t0
	evals := 0
	for i := 0; i < steps; i++ {
		r.step(s, t, h, y)
		evals += 4
		t += h
	}
	return evals, nil
}

// step performs one classical RK4 step of size h, updating y in place.
func (r *RK4) step(s System, t, h float64, y []float64) {
	n := len(y)
	s.Derivatives(t, y, r.k1)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + 0.5*h*r.k1[i]
	}
	s.Derivatives(t+0.5*h, r.tmp, r.k2)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + 0.5*h*r.k2[i]
	}
	s.Derivatives(t+0.5*h, r.tmp, r.k3)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + h*r.k3[i]
	}
	s.Derivatives(t+h, r.tmp, r.k4)
	for i := 0; i < n; i++ {
		y[i] += h / 6 * (r.k1[i] + 2*r.k2[i] + 2*r.k3[i] + r.k4[i])
	}
}

// Euler is an explicit first-order integrator, provided for ablation
// studies of integrator accuracy.
type Euler struct {
	// MaxStep bounds the internal step size; zero means a single step.
	MaxStep float64
	dydt    []float64
}

// NewEuler returns an Euler integrator with the given maximum step.
func NewEuler(maxStep float64) *Euler { return &Euler{MaxStep: maxStep} }

// Integrate advances y from t0 to t1 with fixed explicit-Euler steps.
func (e *Euler) Integrate(s System, t0, t1 float64, y []float64) (int, error) {
	span := t1 - t0
	if span <= 0 {
		return 0, ErrBadSpan
	}
	n := s.Dim()
	if len(y) != n {
		return 0, fmt.Errorf("ode: state length %d, want %d", len(y), n)
	}
	steps := 1
	if e.MaxStep > 0 && span > e.MaxStep {
		steps = int(math.Ceil(span / e.MaxStep))
	}
	h := span / float64(steps)
	if len(e.dydt) < n {
		e.dydt = make([]float64, n)
	}
	t := t0
	for i := 0; i < steps; i++ {
		s.Derivatives(t, y, e.dydt)
		for j := 0; j < n; j++ {
			y[j] += h * e.dydt[j]
		}
		t += h
	}
	return steps, nil
}
