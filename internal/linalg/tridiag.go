package linalg

import "fmt"

// SolveTridiagonalInto solves a tridiagonal system using the Thomas
// algorithm, without allocating. sub is the subdiagonal (sub[0] unused),
// diag the main diagonal, sup the superdiagonal (sup[n-1] unused) and rhs
// the right-hand side; cp and dp are caller-provided scratch vectors and
// x receives the solution, all of length n. Hot paths (the thermal
// propagator's per-interval steady-state solve) keep these buffers across
// calls. The inputs sub/diag/sup/rhs are not modified; x may alias rhs.
// The Thomas algorithm is stable for the diagonally dominant systems
// produced by the thermal network's steady state.
func SolveTridiagonalInto(sub, diag, sup, rhs, cp, dp, x []float64) error {
	n := len(diag)
	if len(sub) != n || len(sup) != n || len(rhs) != n || len(cp) != n || len(dp) != n || len(x) != n {
		return fmt.Errorf("linalg: tridiagonal length mismatch: sub=%d diag=%d sup=%d rhs=%d cp=%d dp=%d x=%d",
			len(sub), len(diag), len(sup), len(rhs), len(cp), len(dp), len(x))
	}
	if n == 0 {
		return fmt.Errorf("linalg: empty tridiagonal system")
	}
	if diag[0] == 0 { //nanolint:ignore floateq an exactly zero leading diagonal entry is structural singularity
		return ErrSingular
	}
	cp[0] = sup[0] / diag[0]
	dp[0] = rhs[0] / diag[0]
	for i := 1; i < n; i++ {
		den := diag[i] - sub[i]*cp[i-1]
		if den == 0 { //nanolint:ignore floateq an exactly zero eliminated diagonal is singular
			return ErrSingular
		}
		cp[i] = sup[i] / den
		dp[i] = (rhs[i] - sub[i]*dp[i-1]) / den
	}
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return nil
}
