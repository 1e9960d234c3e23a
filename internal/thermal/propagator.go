// Exact interval propagator. Within one sampling interval the network is a
// linear time-invariant ODE with piecewise-constant input (the paper's
// interval-averaged power, Sec. 5.3):
//
//	C dθ/dt = b - G θ,   b = P_dyn + P_inter + G_vert θ0
//
// with C the diagonal heat-capacitance matrix and G the symmetric
// tridiagonal conductance matrix of Eqs. 3-4. Substituting u = θ - θ*
// (θ* the steady state G θ* = b) and x = C^{1/2} u symmetrizes the system:
//
//	dx/dt = -S x,   S = C^{-1/2} G C^{-1/2}  (symmetric tridiagonal)
//
// whose exact solution is x(dt) = Q e^{-Λ dt} Q^T x(0) with S = Q Λ Q^T.
// The eigendecomposition is computed once per network. Because interval
// lengths repeat (every full sampling interval shares one dt; only the
// final partial interval differs), the whole affine step for the cached dt
// is collapsed into one dense matrix
//
//	M(dt) = C^{-1/2} Q e^{-Λ dt} Q^T C^{1/2}
//
// so each Advance is a tridiagonal steady-state solve plus a single dense
// matvec θ(dt) = θ* + M (θ(0) - θ*) — machine-precision exact for any dt.
// The paper's sub-stepped RK4 is the tests' oracle for this step. The
// O(n^3) M rebuild runs only when dt changes, i.e. once per run plus once
// for the final partial interval.
package thermal

import (
	"fmt"
	"math"

	"nanobus/internal/linalg"
)

// propagator holds the spectral factorisation of one network plus the
// exponential factors of the most recent dt (interval lengths repeat —
// every full interval shares one dt, only the final partial interval
// differs — so a single cached dt covers nearly every call).
type propagator struct {
	n               int
	sqrtC, invSqrtC []float64
	lambda          []float64      // eigenvalues of S, ascending, all > 0
	q               *linalg.Matrix // eigenvectors of S (columns)

	lastDt float64
	expL   []float64      // exp(-lambda*dt) for lastDt
	m      *linalg.Matrix // dense affine step C^{-1/2} Q e^{-Λ dt} Q^T C^{1/2} for lastDt

	// Per-advance scratch, so the hot path allocates nothing.
	star, rhs, cp, dp, v, w []float64
}

// newPropagator factors the network's symmetrized conductance system.
func newPropagator(nw *Network) (*propagator, error) {
	n := nw.n
	d := make([]float64, n)
	e := make([]float64, n-1)
	// With every C_i equal to c, S = G/c.
	for i := 0; i < n; i++ {
		d[i] = nw.ssDiag[i] / nw.heatCap
	}
	for i := 0; i+1 < n; i++ {
		e[i] = nw.ssSup[i] / nw.heatCap
	}
	lambda, q, err := linalg.SymTridiagEigen(d, e)
	if err != nil {
		return nil, fmt.Errorf("thermal: propagator eigendecomposition: %w", err)
	}
	p := &propagator{
		n:        n,
		sqrtC:    make([]float64, n),
		invSqrtC: make([]float64, n),
		lambda:   lambda,
		q:        q,
		expL:     make([]float64, n),
		m:        linalg.NewSquare(n),
		star:     make([]float64, n),
		rhs:      make([]float64, n),
		cp:       make([]float64, n),
		dp:       make([]float64, n),
		v:        make([]float64, n),
		w:        make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.sqrtC[i] = math.Sqrt(nw.heatCap)
		p.invSqrtC[i] = 1 / p.sqrtC[i]
	}
	return p, nil
}

// rebuildM recomputes the cached dense affine-step matrix
// M = C^{-1/2} Q e^{-Λ dt} Q^T C^{1/2} for a new dt. O(n^3), but dt only
// changes once per run plus once for the final partial interval, so the
// cost amortizes to nothing against the per-interval advance.
func (p *propagator) rebuildM(dt float64) {
	for i, l := range p.lambda {
		p.expL[i] = math.Exp(-l * dt)
	}
	for i := 0; i < p.n; i++ {
		qi := p.q.Row(i)
		for k := 0; k < p.n; k++ {
			p.w[k] = qi[k] * p.expL[k]
		}
		scale := p.invSqrtC[i]
		for j := 0; j < p.n; j++ {
			qj := p.q.Row(j)
			s := 0.0
			for k := 0; k < p.n; k++ {
				s += p.w[k] * qj[k]
			}
			p.m.Set(i, j, scale*s*p.sqrtC[j])
		}
	}
	p.lastDt = dt
}

// advance moves the network temperatures exactly dt seconds forward under
// the network's current dynPower: θ(dt) = θ* + M (θ(0) - θ*) with the
// cached M = C^{-1/2} Q e^{-Λdt} Q^T C^{1/2}.
//
//nanolint:hotpath one call per sampling interval; steady state, one matvec, no allocations
func (p *propagator) advance(nw *Network, dt float64) error {
	if dt != p.lastDt { //nanolint:ignore floateq dt is the exact cache key; intervals repeat bit-identical lengths
		p.rebuildM(dt)
	}
	if err := nw.steadyInto(nw.dynPower, p.rhs, p.cp, p.dp, p.star); err != nil {
		return err
	}
	for i := 0; i < p.n; i++ {
		p.v[i] = nw.temps[i] - p.star[i]
	}
	if err := p.m.MulVecInto(p.v, p.w); err != nil {
		return err
	}
	for i := 0; i < p.n; i++ {
		nw.temps[i] = p.star[i] + p.w[i]
	}
	return nil
}
