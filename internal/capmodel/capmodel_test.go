package capmodel

import (
	"math"
	"testing"

	"nanobus/internal/extract"
	"nanobus/internal/itrs"
)

func TestFromNodeAnchorsTable1(t *testing.T) {
	for _, node := range itrs.Nodes() {
		m, err := FromNode(node, 32, DefaultDecay(node))
		if err != nil {
			t.Fatalf("%s: %v", node.Name, err)
		}
		if m.N() != 32 {
			t.Fatalf("%s: N = %d, want 32", node.Name, m.N())
		}
		for i := 0; i < 32; i++ {
			if m.Self(i) != node.CLine {
				t.Errorf("%s: Self(%d) = %g, want %g", node.Name, i, m.Self(i), node.CLine)
			}
		}
		if m.Coupling(10, 11) != node.CInter {
			t.Errorf("%s: adjacent coupling = %g, want %g", node.Name, m.Coupling(10, 11), node.CInter)
		}
	}
}

func TestCouplingSymmetricZeroDiagonal(t *testing.T) {
	m, err := FromNode(itrs.N90, 16, DefaultDecay(itrs.N90))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if m.Coupling(i, i) != 0 {
			t.Errorf("Coupling(%d,%d) = %g, want 0", i, i, m.Coupling(i, i))
		}
		for j := 0; j < 16; j++ {
			if m.Coupling(i, j) != m.Coupling(j, i) {
				t.Errorf("asymmetric coupling (%d,%d)", i, j)
			}
			if m.Coupling(i, j) < 0 {
				t.Errorf("negative coupling (%d,%d)", i, j)
			}
		}
	}
}

func TestCouplingDecaysMonotonically(t *testing.T) {
	m, err := FromNode(itrs.N130, 16, DefaultDecay(itrs.N130))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for d := 1; d <= 6; d++ {
		c := m.Coupling(8, 8+d)
		if c >= prev {
			t.Errorf("coupling at distance %d (%g) >= previous (%g)", d, c, prev)
		}
		if c <= 0 {
			t.Errorf("coupling at distance %d is %g, want > 0", d, c)
		}
		prev = c
	}
}

func TestTruncate(t *testing.T) {
	m, err := FromNode(itrs.N130, 8, DefaultDecay(itrs.N130))
	if err != nil {
		t.Fatal(err)
	}
	selfOnly := m.Truncate(0)
	nn := m.Truncate(1)
	all := m.Truncate(100)

	if selfOnly.RowSum(3) != 0 {
		t.Errorf("Truncate(0) left coupling %g", selfOnly.RowSum(3))
	}
	if nn.Coupling(3, 4) != m.Coupling(3, 4) {
		t.Error("Truncate(1) removed adjacent coupling")
	}
	if nn.Coupling(3, 5) != 0 {
		t.Error("Truncate(1) kept distance-2 coupling")
	}
	if all.RowSum(3) != m.RowSum(3) {
		t.Error("Truncate(100) changed the matrix")
	}
	// Self caps always preserved.
	if selfOnly.Self(3) != m.Self(3) || nn.Self(3) != m.Self(3) {
		t.Error("Truncate changed self capacitance")
	}
	// Original untouched.
	if m.Coupling(3, 5) == 0 {
		t.Error("Truncate mutated the original")
	}
}

func TestRowSumAndTotal(t *testing.T) {
	m, err := FromNode(itrs.N45, 4, DecayModel{Ratios: []float64{1, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	// Wire 1 couples to 0 (d1), 2 (d1), 3 (d2).
	want := itrs.N45.CInter * (1 + 1 + 0.5)
	if got := m.RowSum(1); math.Abs(got-want) > 1e-20 {
		t.Errorf("RowSum(1) = %g, want %g", got, want)
	}
	if got := m.Total(1); math.Abs(got-(want+itrs.N45.CLine)) > 1e-20 {
		t.Errorf("Total(1) = %g, want %g", got, want+itrs.N45.CLine)
	}
}

func TestDecayValidate(t *testing.T) {
	bad := []DecayModel{
		{},
		{Ratios: []float64{0.9}},
		{Ratios: []float64{1, 0.5, 0.7}},
		{Ratios: []float64{1, -0.1}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("decay %d accepted: %+v", i, d)
		}
	}
	if err := (DecayModel{Ratios: []float64{1, 0.04, 0.01}}).Validate(); err != nil {
		t.Errorf("good decay rejected: %v", err)
	}
}

func TestDecayAtOutOfRange(t *testing.T) {
	d := DecayModel{Ratios: []float64{1, 0.5}}
	if d.At(0) != 0 || d.At(3) != 0 || d.At(-1) != 0 {
		t.Error("out-of-range distances should have zero ratio")
	}
	if d.At(1) != 1 || d.At(2) != 0.5 {
		t.Error("in-range ratios wrong")
	}
}

func TestFromNodeValidation(t *testing.T) {
	if _, err := FromNode(itrs.N130, 0, DefaultDecay(itrs.N130)); err == nil {
		t.Error("zero-width bus accepted")
	}
	if _, err := FromNode(itrs.N130, 8, DecayModel{Ratios: []float64{0.5}}); err == nil {
		t.Error("invalid decay accepted")
	}
}

// TestDefaultDecayMatchesFreshExtraction re-derives the calibrated decay
// constants from a fresh (coarser, faster) BEM run and checks they agree to
// within discretisation error. This keeps the hard-coded table honest.
func TestDefaultDecayMatchesFreshExtraction(t *testing.T) {
	if testing.Short() {
		t.Skip("BEM extraction in -short mode")
	}
	for _, node := range []itrs.Node{itrs.N130, itrs.N45} {
		got, err := CalibrateDecay(node, 11, 3, extract.Options{PanelsPerEdge: 4})
		if err != nil {
			t.Fatalf("%s: CalibrateDecay: %v", node.Name, err)
		}
		want := DefaultDecay(node)
		for d := 2; d <= 3; d++ {
			g, w := got.At(d), want.At(d)
			if math.Abs(g-w) > 0.25*w {
				t.Errorf("%s: decay at distance %d = %.4f, calibrated table %.4f (>25%% apart)",
					node.Name, d, g, w)
			}
		}
	}
}

func TestDefaultDecayAllNodesValid(t *testing.T) {
	for _, node := range itrs.Nodes() {
		if err := DefaultDecay(node).Validate(); err != nil {
			t.Errorf("%s: %v", node.Name, err)
		}
	}
	// Unknown node falls back to a valid generic profile.
	if err := DefaultDecay(itrs.Node{FeatureNm: 22}).Validate(); err != nil {
		t.Errorf("generic: %v", err)
	}
}

func TestFromExtraction(t *testing.T) {
	node := itrs.N130
	dec, err := CalibrateDecay(node, 5, 2, extract.Options{PanelsPerEdge: 4})
	if err != nil {
		t.Fatalf("CalibrateDecay: %v", err)
	}
	if dec.At(1) != 1 {
		t.Errorf("extraction decay at d=1 is %g, want 1", dec.At(1))
	}
	m, err := FromNode(node, 5, dec)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 5 {
		t.Errorf("N = %d, want 5", m.N())
	}
}
