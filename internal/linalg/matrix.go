// Package linalg implements the small dense linear-algebra kernel needed by
// the capacitance extractor (dense collocation systems solved by LU) and the
// thermal model (tridiagonal steady-state solves). It is self-contained and
// uses only the standard library.
package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("linalg: invalid matrix dimensions %dx%d", rows, cols)
	}
	return newMatrix(rows, cols), nil
}

// newMatrix is the no-check constructor behind NewMatrix, for callers whose
// dimensions are positive by construction (e.g. taken from an existing
// matrix).
func newMatrix(rows, cols int) *Matrix {
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewSquare returns an n x n zero matrix for callers whose dimension is
// positive by construction (e.g. taken from an existing matrix or a
// validated configuration). It panics on n <= 0 — a programming error at
// the call site, not an input condition.
func NewSquare(n int) *Matrix {
	if n <= 0 {
		//nanolint:ignore libpanic dimension is positive by construction at every call site; a violation is a programming error, not input
		panic(fmt.Sprintf("linalg: NewSquare(%d)", n))
	}
	return newMatrix(n, n)
}

// NewRect is NewSquare's rectangular sibling: a rows x cols zero matrix
// for callers whose dimensions are positive by construction. It panics on
// non-positive dimensions.
func NewRect(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		//nanolint:ignore libpanic dimension is positive by construction at every call site; a violation is a programming error, not input
		panic(fmt.Sprintf("linalg: NewRect(%d, %d)", rows, cols))
	}
	return newMatrix(rows, cols)
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := newMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Transpose returns a new transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	t := newMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVecInto computes y = M x without allocating. x must have length Cols
// and y length Rows; y must not alias x. The dot product runs over four
// independent accumulators: a single running sum serializes on the FP-add
// latency (~4 cycles per element), which made this kernel the hot-path
// floor of the thermal propagator. The deterministic fixed merge order
// keeps results reproducible run to run.
//
//nanolint:hotpath per-interval thermal matvec; allocates nothing
func (m *Matrix) MulVecInto(x, y []float64) error {
	if len(x) != m.cols || len(y) != m.rows {
		return fmt.Errorf("linalg: MulVecInto dimension mismatch: x=%d y=%d for %dx%d", len(x), len(y), m.rows, m.cols)
	}
	for i := 0; i < m.rows; i++ {
		r := m.Row(i)
		xv := x
		var s0, s1, s2, s3 float64
		for len(r) >= 4 && len(xv) >= 4 {
			s0 += r[0] * xv[0]
			s1 += r[1] * xv[1]
			s2 += r[2] * xv[2]
			s3 += r[3] * xv[3]
			r, xv = r[4:], xv[4:]
		}
		for j := range r {
			s0 += r[j] * xv[j]
		}
		y[i] = (s0 + s1) + (s2 + s3)
	}
	return nil
}

// MulInto computes out = M*B without allocating. out must be Rows x
// b.Cols and must not alias m or b. It is the kernel behind the banded
// thermal grid's spectral transforms, where the operand shapes repeat
// every sampling interval and the scratch matrices are preallocated.
func (m *Matrix) MulInto(b, out *Matrix) error {
	if m.cols != b.rows {
		return fmt.Errorf("linalg: MulInto dimension mismatch: %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	if out.rows != m.rows || out.cols != b.cols {
		return fmt.Errorf("linalg: MulInto output is %dx%d, want %dx%d", out.rows, out.cols, m.rows, b.cols)
	}
	if out == m || out == b {
		return fmt.Errorf("linalg: MulInto output aliases an operand")
	}
	for i := range out.data {
		out.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for k, aik := range arow {
			if aik == 0 { //nanolint:ignore floateq sparsity skip: zero entries contribute nothing to the product
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .5g", m.At(i, j))
			if j < m.cols-1 {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
