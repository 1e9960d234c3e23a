package extract

import (
	"math"
	"testing"

	"nanobus/internal/geometry"
	"nanobus/internal/itrs"
	"nanobus/internal/linalg"
	"nanobus/internal/units"
)

// TestCylinderOverGroundPlane validates the extractor against the analytic
// capacitance of a circular cylinder of radius a with axis at height h over
// a ground plane: C = 2*pi*eps / acosh(h/a) per unit length.
func TestCylinderOverGroundPlane(t *testing.T) {
	a := 1.0e-6
	h := 4.0e-6
	circ := geometry.CircleConductor("cyl", 0, h, a, 96)
	res, err := Extract([]geometry.Conductor{circ}, 1.0, Options{PanelsPerEdge: 1})
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	got := res.Maxwell.At(0, 0)
	want := 2 * math.Pi * units.Eps0 / math.Acosh(h/a)
	if rel := math.Abs(got-want) / want; rel > 0.02 {
		t.Errorf("cylinder capacitance = %.4g F/m, analytic %.4g F/m (rel err %.3f)", got, want, rel)
	}
}

// TestPermittivityScaling: capacitance must scale linearly with epsRel.
func TestPermittivityScaling(t *testing.T) {
	cond := []geometry.Conductor{geometry.RectConductor("w", 0, 1e-6, 1e-6, 1e-6)}
	r1, err := Extract(cond, 1.0, Options{PanelsPerEdge: 6})
	if err != nil {
		t.Fatalf("Extract eps=1: %v", err)
	}
	r33, err := Extract(cond, 3.3, Options{PanelsPerEdge: 6})
	if err != nil {
		t.Fatalf("Extract eps=3.3: %v", err)
	}
	ratio := r33.Maxwell.At(0, 0) / r1.Maxwell.At(0, 0)
	if math.Abs(ratio-3.3) > 1e-6 {
		t.Errorf("eps scaling ratio = %.8f, want 3.3", ratio)
	}
}

// TestMaxwellMatrixProperties: symmetry, positive diagonal, negative
// off-diagonals, and diagonal dominance for a small bus.
func TestMaxwellMatrixProperties(t *testing.T) {
	layout := geometry.BusLayout{
		Wires: 5,
		W:     335e-9, T: 670e-9, S: 335e-9, H: 724e-9,
		EpsRel: 3.3,
	}
	res, _, err := ExtractBus(layout, Options{PanelsPerEdge: 6})
	if err != nil {
		t.Fatalf("ExtractBus: %v", err)
	}
	m := res.Maxwell
	if !symmetric(m, 0.02) {
		t.Error("Maxwell matrix is not symmetric within 2%")
	}
	for i := 0; i < m.Rows(); i++ {
		if m.At(i, i) <= 0 {
			t.Errorf("diagonal C[%d][%d] = %g, want > 0", i, i, m.At(i, i))
		}
		offSum := 0.0
		for j := 0; j < m.Cols(); j++ {
			if i == j {
				continue
			}
			if m.At(i, j) >= 0 {
				t.Errorf("off-diagonal C[%d][%d] = %g, want < 0", i, j, m.At(i, j))
			}
			offSum += -m.At(i, j)
		}
		if m.At(i, i) <= offSum {
			t.Errorf("row %d not diagonally dominant: diag %g, off-sum %g", i, m.At(i, i), offSum)
		}
	}
}

// TestCouplingDecreasesWithDistance: coupling falls monotonically with
// neighbour distance.
func TestCouplingDecreasesWithDistance(t *testing.T) {
	layout := geometry.BusLayout{
		Wires: 7,
		W:     335e-9, T: 670e-9, S: 335e-9, H: 724e-9,
		EpsRel: 3.3,
	}
	res, _, err := ExtractBus(layout, Options{PanelsPerEdge: 5})
	if err != nil {
		t.Fatalf("ExtractBus: %v", err)
	}
	ref := 3
	prev := math.Inf(1)
	for d := 1; d <= 3; d++ {
		c := res.Coupling(ref, ref+d)
		if c <= 0 {
			t.Errorf("coupling at distance %d = %g, want > 0", d, c)
		}
		if c >= prev {
			t.Errorf("coupling at distance %d (%g) >= distance %d (%g)", d, c, d-1, prev)
		}
		prev = c
	}
}

// TestFig1bDistribution130nm: the headline Fig. 1(b) property — for the
// 130 nm ITRS geometry, non-adjacent coupling is non-negligible (the paper
// reports ~8-10% across nodes).
func TestFig1bDistribution130nm(t *testing.T) {
	n := itrs.N130
	layout := geometry.BusLayout{
		Wires: 11, // smaller than 32 for test speed; centre wire converges fast
		W:     n.WireWidth, T: n.WireThickness, S: n.Spacing(), H: n.ILDHeight,
		EpsRel: n.EpsRel,
	}
	_, dist, err := ExtractBus(layout, Options{PanelsPerEdge: 5})
	if err != nil {
		t.Fatalf("ExtractBus: %v", err)
	}
	if dist.CgndFrac <= 0 || dist.CgndFrac >= 1 {
		t.Errorf("Cgnd fraction = %.3f, want in (0,1)", dist.CgndFrac)
	}
	if dist.CC[0] < 0.3 {
		t.Errorf("CC1 fraction = %.3f, want dominant (>0.3) for high-aspect global wires", dist.CC[0])
	}
	na := dist.NonAdjacentFrac()
	if na < 0.02 || na > 0.25 {
		t.Errorf("non-adjacent fraction = %.3f, want in the paper's neighbourhood (0.02..0.25)", na)
	}
	sum := dist.CgndFrac + dist.CC[0] + dist.CC[1] + dist.CC[2] + dist.CCRest
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %.6f, want 1", sum)
	}
}

// TestCouplingDecayShape: decay ratios start at 1 and strictly decrease.
func TestCouplingDecayShape(t *testing.T) {
	layout := geometry.BusLayout{
		Wires: 9,
		W:     230e-9, T: 482e-9, S: 230e-9, H: 498e-9,
		EpsRel: 2.8,
	}
	res, _, err := ExtractBus(layout, Options{PanelsPerEdge: 5})
	if err != nil {
		t.Fatalf("ExtractBus: %v", err)
	}
	decay := CouplingDecay(res, 4)
	if math.Abs(decay[0]-1) > 1e-9 {
		t.Errorf("decay[0] = %g, want 1", decay[0])
	}
	for i := 1; i < len(decay); i++ {
		if decay[i] >= decay[i-1] {
			t.Errorf("decay[%d] = %g >= decay[%d] = %g; want strictly decreasing", i, decay[i], i-1, decay[i-1])
		}
		if decay[i] <= 0 {
			t.Errorf("decay[%d] = %g, want > 0", i, decay[i])
		}
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := Extract(nil, 1, Options{}); err == nil {
		t.Error("empty conductor list accepted")
	}
	c := geometry.RectConductor("w", 0, 1e-6, 1e-6, 1e-6)
	if _, err := Extract([]geometry.Conductor{c}, 0.5, Options{}); err == nil {
		t.Error("epsRel < 1 accepted")
	}
	below := geometry.RectConductor("bad", 0, -1e-6, 1e-6, 0.5e-6)
	if _, err := Extract([]geometry.Conductor{below}, 1, Options{}); err == nil {
		t.Error("conductor below ground plane accepted")
	}
	if _, err := Extract([]geometry.Conductor{{Name: "empty"}}, 1, Options{}); err == nil {
		t.Error("conductor with empty boundary accepted")
	}
}

func TestDistributionErrors(t *testing.T) {
	c := geometry.RectConductor("w", 0, 1e-6, 1e-6, 1e-6)
	res, err := Extract([]geometry.Conductor{c}, 1, Options{PanelsPerEdge: 4})
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if _, err := Distribution(res); err == nil {
		t.Error("single-wire distribution accepted")
	}
}

func TestBusLayoutValidate(t *testing.T) {
	bad := []geometry.BusLayout{
		{Wires: 0, W: 1, T: 1, S: 1, H: 1, EpsRel: 2},
		{Wires: 2, W: 0, T: 1, S: 1, H: 1, EpsRel: 2},
		{Wires: 2, W: 1, T: 1, S: 1, H: 1, EpsRel: 0.5},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("layout %d accepted: %+v", i, b)
		}
	}
	good := geometry.BusLayout{Wires: 2, W: 1e-6, T: 1e-6, S: 1e-6, H: 1e-6, EpsRel: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good layout rejected: %v", err)
	}
}

// TestSymmetricBusSymmetricResult: wires mirrored about the bus centre see
// mirrored capacitances.
func TestSymmetricBusSymmetricResult(t *testing.T) {
	layout := geometry.BusLayout{
		Wires: 5,
		W:     145e-9, T: 319e-9, S: 145e-9, H: 329e-9,
		EpsRel: 2.5,
	}
	res, _, err := ExtractBus(layout, Options{PanelsPerEdge: 5})
	if err != nil {
		t.Fatalf("ExtractBus: %v", err)
	}
	// Wire 0 vs wire 4 self-to-ground should match.
	a, b := res.SelfToGround(0), res.SelfToGround(4)
	if rel := math.Abs(a-b) / math.Abs(a); rel > 0.01 {
		t.Errorf("edge wires' Cgnd differ: %g vs %g (rel %.3f)", a, b, rel)
	}
	// Coupling (0,1) vs (4,3) should match.
	c01, c43 := res.Coupling(0, 1), res.Coupling(4, 3)
	if rel := math.Abs(c01-c43) / c01; rel > 0.01 {
		t.Errorf("mirrored couplings differ: %g vs %g", c01, c43)
	}
}

// symmetric reports whether m is square and symmetric within tol,
// relative to its largest absolute element (a Maxwell capacitance matrix
// is symmetric by reciprocity).
func symmetric(m *linalg.Matrix, tol float64) bool {
	if m.Rows() != m.Cols() {
		return false
	}
	scale := 0.0
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			scale = math.Max(scale, math.Abs(m.At(i, j)))
		}
	}
	for i := 0; i < m.Rows(); i++ {
		for j := i + 1; j < m.Cols(); j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol*scale {
				return false
			}
		}
	}
	return true
}
