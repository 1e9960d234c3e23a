package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// reconstruct evaluates (Q diag(w) Q^T)[i][j].
func reconstruct(w []float64, q *Matrix, i, j int) float64 {
	s := 0.0
	for k := range w {
		s += q.At(i, k) * w[k] * q.At(j, k)
	}
	return s
}

func checkEigen(t *testing.T, d, e []float64) {
	t.Helper()
	n := len(d)
	w, q, err := SymTridiagEigen(d, e)
	if err != nil {
		t.Fatalf("SymTridiagEigen: %v", err)
	}
	scale := 0.0
	for _, v := range d {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for _, v := range e {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	tol := 1e-12 * scale * float64(n)
	// Ascending eigenvalues.
	for k := 1; k < n; k++ {
		if w[k] < w[k-1] {
			t.Errorf("eigenvalues not ascending: w[%d]=%g < w[%d]=%g", k, w[k], k-1, w[k-1])
		}
	}
	// Orthonormal columns.
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += q.At(i, a) * q.At(i, b)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(s-want) > 1e-12*float64(n) {
				t.Errorf("Q^T Q [%d][%d] = %g, want %g", a, b, s, want)
			}
		}
	}
	// Reconstruction matches the tridiagonal input.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			switch {
			case i == j:
				want = d[i]
			case j == i+1:
				want = e[i]
			case j == i-1:
				want = e[j]
			}
			if got := reconstruct(w, q, i, j); math.Abs(got-want) > tol {
				t.Errorf("reconstruction [%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestSymTridiagEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	w, _, err := SymTridiagEigen([]float64{2, 2}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-1) > 1e-14 || math.Abs(w[1]-3) > 1e-14 {
		t.Errorf("eigenvalues %v, want [1 3]", w)
	}
}

func TestSymTridiagEigenDiagonal(t *testing.T) {
	// Zero off-diagonals: eigenvalues are the sorted diagonal.
	w, q, err := SymTridiagEigen([]float64{3, 1, 2}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []float64{1, 2, 3} {
		if math.Abs(w[k]-want) > 1e-14 {
			t.Errorf("w[%d] = %g, want %g", k, w[k], want)
		}
	}
	// Columns must be permuted unit vectors: q[1][0]=1 pairs eigenvalue 1.
	if math.Abs(math.Abs(q.At(1, 0))-1) > 1e-14 {
		t.Errorf("eigenvector for eigenvalue 1 = column 0 of %v", q)
	}
}

func TestSymTridiagEigenSingle(t *testing.T) {
	w, q, err := SymTridiagEigen([]float64{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 5 || math.Abs(q.At(0, 0)) != 1 {
		t.Errorf("1x1 decomposition w=%v q=%v", w, q)
	}
}

func TestSymTridiagEigenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64() * 10
		}
		for i := range e {
			e[i] = rng.NormFloat64() * 10
		}
		checkEigen(t, d, e)
	}
}

func TestSymTridiagEigenThermalShaped(t *testing.T) {
	// A diagonally dominant system like the bus thermal network: positive
	// diagonal, negative off-diagonal, widely varying magnitudes.
	n := 33
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 500 + 10*float64(i)
	}
	for i := range e {
		e[i] = -140
	}
	w, _, err := SymTridiagEigen(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range w {
		if v <= 0 {
			t.Errorf("diagonally dominant SPD system produced eigenvalue w[%d] = %g <= 0", k, v)
		}
	}
	checkEigen(t, d, e)
}

func TestSymTridiagEigenValidation(t *testing.T) {
	if _, _, err := SymTridiagEigen(nil, nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, _, err := SymTridiagEigen([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("wrong off-diagonal length accepted")
	}
	if _, _, err := SymTridiagEigen([]float64{math.NaN(), 2}, []float64{1}); err == nil {
		t.Error("NaN diagonal accepted")
	}
	if _, _, err := SymTridiagEigen([]float64{1, 2}, []float64{math.Inf(1)}); err == nil {
		t.Error("Inf off-diagonal accepted")
	}
}

func TestSolveTridiagonalIntoMatchesAlloc(t *testing.T) {
	sub := []float64{0, -1, -1}
	diag := []float64{2, 2, 2}
	sup := []float64{-1, -1, 0}
	rhs := []float64{1, 0, 1}
	if err := SolveTridiagonalInto(sub, diag, sup, rhs, make([]float64, 1), make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("short scratch accepted")
	}
}

func TestMulVecInto(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := make([]float64, 3)
	if err := m.MulVecInto([]float64{1, 1}, y); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{3, 7, 11} {
		if y[i] != want {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want)
		}
	}
	if err := m.MulVecInto([]float64{1}, y); err == nil {
		t.Error("short x accepted")
	}
	if err := m.MulVecInto([]float64{1, 1}, y[:2]); err == nil {
		t.Error("short y accepted")
	}
}
