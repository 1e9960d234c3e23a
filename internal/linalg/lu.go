package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu  *Matrix
	piv []int
}

// FactorLU computes the LU factorization of a square matrix with partial
// (row) pivoting. The input is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: LU of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				maxAbs = a
				p = i
			}
		}
		if maxAbs == 0 { //nanolint:ignore floateq an exactly zero pivot column is structural singularity
			return nil, ErrSingular
		}
		if p != k {
			rowP, rowK := lu.Row(p), lu.Row(k)
			for j := 0; j < n; j++ {
				rowP[j], rowK[j] = rowK[j], rowP[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 { //nanolint:ignore floateq sparsity skip: a zero multiplier eliminates the row update
				continue
			}
			rowI, rowK := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A x = b for one right-hand side.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: LU solve rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 { //nanolint:ignore floateq an exactly zero diagonal after elimination is singular
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// SolveLU is a convenience wrapper: factor A and solve A x = b.
func SolveLU(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
