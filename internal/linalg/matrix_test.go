package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// mustM unwraps a (Matrix, error) constructor result for test fixtures
// whose inputs are valid by construction.
func mustM(m *Matrix, err error) *Matrix {
	if err != nil {
		panic(err)
	}
	return m
}

// solveTridiagonal runs the Thomas kernel with freshly allocated scratch.
func solveTridiagonal(sub, diag, sup, rhs []float64) ([]float64, error) {
	n := len(diag)
	x := make([]float64, n)
	if err := SolveTridiagonalInto(sub, diag, sup, rhs, make([]float64, n), make([]float64, n), x); err != nil {
		return nil, err
	}
	return x, nil
}

func TestNewMatrixZeroed(t *testing.T) {
	m := mustM(NewMatrix(3, 4))
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixInvalidDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		if _, err := NewMatrix(dims[0], dims[1]); err == nil {
			t.Errorf("NewMatrix(%d,%d) returned nil error", dims[0], dims[1])
		}
	}
}

func TestNewMatrixFromRowsRagged(t *testing.T) {
	if _, err := NewMatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows returned nil error")
	}
	if _, err := NewMatrixFromRows(nil); err == nil {
		t.Error("empty rows returned nil error")
	}
}

func TestSetAtAdd(t *testing.T) {
	m := mustM(NewMatrix(2, 2))
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Errorf("At(0,1) = %g, want 7.5", got)
	}
}

func TestMulKnown(t *testing.T) {
	a := mustM(NewMatrixFromRows([][]float64{{1, 2}, {3, 4}}))
	b := mustM(NewMatrixFromRows([][]float64{{5, 6}, {7, 8}}))
	c := mustM(NewMatrix(2, 2))
	if err := a.MulInto(b, c); err != nil {
		t.Fatalf("MulInto: %v", err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := mustM(NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}}))
	tr := a.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != tr.At(j, i) {
				t.Errorf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	s := mustM(NewMatrixFromRows([][]float64{{2, 1}, {1, 3}}))
	if !s.IsSymmetric(1e-12) {
		t.Error("symmetric matrix reported asymmetric")
	}
	a := mustM(NewMatrixFromRows([][]float64{{2, 1}, {0, 3}}))
	if a.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	r := mustM(NewMatrixFromRows([][]float64{{2, 1, 1}, {1, 3, 1}}))
	if r.IsSymmetric(1e-12) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := mustM(NewMatrixFromRows([][]float64{{1, 2}, {3, 4}}))
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := mustM(NewMatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}))
	b := []float64{8, -11, -3}
	x, err := SolveLU(a, b)
	if err != nil {
		t.Fatalf("SolveLU: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := mustM(NewMatrixFromRows([][]float64{{1, 2}, {2, 4}}))
	if _, err := FactorLU(a); err == nil {
		t.Error("FactorLU of singular matrix returned nil error")
	}
}

func TestLUNonSquare(t *testing.T) {
	a := mustM(NewMatrix(2, 3))
	if _, err := FactorLU(a); err == nil {
		t.Error("FactorLU of non-square matrix returned nil error")
	}
}

// Property: for random well-conditioned matrices, LU solve reproduces b.
func TestLUSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		a := mustM(NewMatrix(n, n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			// Diagonal boost for conditioning.
			a.Add(i, i, float64(n))
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		if err := a.MulVecInto(xTrue, b); err != nil {
			return false
		}
		x, err := SolveLU(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEqual(x[i], xTrue[i], 1e-8) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTridiagonalKnown(t *testing.T) {
	// System: [2 -1 0; -1 2 -1; 0 -1 2] x = [1 0 1] -> x = [1 1 1].
	sub := []float64{0, -1, -1}
	diag := []float64{2, 2, 2}
	sup := []float64{-1, -1, 0}
	rhs := []float64{1, 0, 1}
	x, err := solveTridiagonal(sub, diag, sup, rhs)
	if err != nil {
		t.Fatalf("SolveTridiagonalInto: %v", err)
	}
	for i, want := range []float64{1, 1, 1} {
		if !almostEqual(x[i], want, 1e-12) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want)
		}
	}
}

func TestTridiagonalMismatch(t *testing.T) {
	if _, err := solveTridiagonal([]float64{1}, []float64{1, 2}, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not detected")
	}
	if _, err := solveTridiagonal(nil, nil, nil, nil); err == nil {
		t.Error("empty system not detected")
	}
}

// Property: Thomas algorithm agrees with dense LU on random diagonally
// dominant tridiagonal systems.
func TestTridiagonalMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(20)
		sub := make([]float64, n)
		diag := make([]float64, n)
		sup := make([]float64, n)
		rhs := make([]float64, n)
		dense := mustM(NewMatrix(n, n))
		for i := 0; i < n; i++ {
			if i > 0 {
				sub[i] = rng.NormFloat64()
				dense.Set(i, i-1, sub[i])
			}
			if i < n-1 {
				sup[i] = rng.NormFloat64()
				dense.Set(i, i+1, sup[i])
			}
			diag[i] = 4 + rng.Float64() // dominant
			dense.Set(i, i, diag[i])
			rhs[i] = rng.NormFloat64()
		}
		xt, err := solveTridiagonal(sub, diag, sup, rhs)
		if err != nil {
			t.Fatalf("SolveTridiagonalInto: %v", err)
		}
		xl, err := SolveLU(dense, rhs)
		if err != nil {
			t.Fatalf("SolveLU: %v", err)
		}
		for i := range xt {
			if !almostEqual(xt[i], xl[i], 1e-9) {
				t.Fatalf("trial %d: x[%d]: thomas %g, lu %g", trial, i, xt[i], xl[i])
			}
		}
	}
}
