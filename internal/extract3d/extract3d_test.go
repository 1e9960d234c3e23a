package extract3d

import (
	"math"
	"testing"

	"nanobus/internal/extract"
	"nanobus/internal/geometry"
	"nanobus/internal/itrs"
	"nanobus/internal/linalg"
	"nanobus/internal/units"
)

// TestUnitCubeCapacitance validates against the classic numerical result:
// the free-space capacitance of a unit cube is 0.6607 * 4*pi*eps0*a
// (~73.5 pF for a 1 m cube).
func TestUnitCubeCapacitance(t *testing.T) {
	cube := Box{Name: "cube", X0: 0, Y0: 0, Z0: 0, X1: 1, Y1: 1, Z1: 1}
	res, err := Extract([]Box{cube}, 1.0, Options{TargetPanels: 600})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Maxwell.At(0, 0)
	want := 0.6607 * 4 * math.Pi * units.Eps0
	if rel := math.Abs(got-want) / want; rel > 0.03 {
		t.Errorf("cube capacitance = %.4g F, literature %.4g F (rel err %.3f)", got, want, rel)
	}
}

// TestSquarePlate validates the thin-square-plate limit (~40.7 pF per
// meter of side length).
func TestSquarePlate(t *testing.T) {
	plate := Box{Name: "plate", X0: 0, Y0: 0, Z0: 0, X1: 1, Y1: 1, Z1: 0.001}
	res, err := Extract([]Box{plate}, 1.0, Options{TargetPanels: 500})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Maxwell.At(0, 0)
	want := 40.7e-12
	if rel := math.Abs(got-want) / want; rel > 0.06 {
		t.Errorf("plate capacitance = %.4g F, literature %.4g F (rel err %.3f)", got, want, rel)
	}
}

// TestParallelPlates: two large plates at small separation approach
// eps*A/d (always exceeding it, by the fringe field).
func TestParallelPlates(t *testing.T) {
	const a, d = 1.0, 0.05
	bottom := Box{Name: "b", X0: 0, Y0: 0, Z0: 0, X1: a, Y1: a, Z1: 0.001}
	top := Box{Name: "t", X0: 0, Y0: 0, Z0: d, X1: a, Y1: a, Z1: d + 0.001}
	res, err := Extract([]Box{bottom, top}, 1.0, Options{TargetPanels: 400})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Coupling(0, 1)
	ideal := units.Eps0 * a * a / d
	if c < ideal {
		t.Errorf("plate coupling %.4g F below ideal %.4g F", c, ideal)
	}
	if c > 1.5*ideal {
		t.Errorf("plate coupling %.4g F too far above ideal %.4g F", c, ideal)
	}
}

// TestGroundPlaneImage: a conductor over the ground plane gains
// capacitance relative to free space (its image doubles the field), and
// the plane must be respected.
func TestGroundPlaneImage(t *testing.T) {
	cube := Box{Name: "c", X0: 0, Y0: 0, Z0: 0.2, X1: 1, Y1: 1, Z1: 1.2}
	free, err := Extract([]Box{cube}, 1.0, Options{TargetPanels: 300})
	if err != nil {
		t.Fatal(err)
	}
	grounded, err := Extract([]Box{cube}, 1.0, Options{TargetPanels: 300, GroundPlane: true})
	if err != nil {
		t.Fatal(err)
	}
	if grounded.Maxwell.At(0, 0) <= free.Maxwell.At(0, 0) {
		t.Errorf("ground plane did not raise capacitance: %g vs %g",
			grounded.Maxwell.At(0, 0), free.Maxwell.At(0, 0))
	}
	below := Box{Name: "bad", X0: 0, Y0: 0, Z0: -1, X1: 1, Y1: 1, Z1: 1}
	if _, err := Extract([]Box{below}, 1.0, Options{GroundPlane: true}); err == nil {
		t.Error("box crossing the ground plane accepted")
	}
}

// Test3DRaisesNonAdjacentCoupling is the payoff: on the paper's 130 nm
// geometry, the 3-D extraction (finite length, fringe fields) must yield a
// larger non-adjacent-to-adjacent coupling ratio than the 2-D solver —
// closing the gap between our 2-D numbers and the paper's FastCap shares.
func Test3DRaisesNonAdjacentCoupling(t *testing.T) {
	node := itrs.N130
	const wires = 5
	boxes := BusBoxes(node, wires, 20*node.Pitch())
	res3, err := Extract(boxes, node.EpsRel, Options{TargetPanels: 260, GroundPlane: true})
	if err != nil {
		t.Fatal(err)
	}
	layout := geometry.BusLayout{
		Wires: wires,
		W:     node.WireWidth, T: node.WireThickness,
		S: node.Spacing(), H: node.ILDHeight,
		EpsRel: node.EpsRel,
	}
	res2, _, err := extract.ExtractBus(layout, extract.Options{PanelsPerEdge: 6})
	if err != nil {
		t.Fatal(err)
	}
	mid := wires / 2
	ratio3 := res3.Coupling(mid, mid+2) / res3.Coupling(mid, mid+1)
	ratio2 := res2.Coupling(mid, mid+2) / res2.Coupling(mid, mid+1)
	if ratio3 <= ratio2 {
		t.Errorf("3-D CC2/CC1 = %.4f not above 2-D %.4f", ratio3, ratio2)
	}
	// And the 3-D ratio should land in the band the paper's Fig. 1(b)
	// implies (CC2/CC1 ~ 0.05-0.15).
	if ratio3 < 0.03 || ratio3 > 0.3 {
		t.Errorf("3-D CC2/CC1 = %.4f outside the plausible band", ratio3)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Extract(nil, 1, Options{}); err == nil {
		t.Error("no conductors accepted")
	}
	if _, err := Extract([]Box{{Name: "x", X1: 1, Y1: 1, Z1: 1}}, 0.5, Options{}); err == nil {
		t.Error("epsRel < 1 accepted")
	}
	if _, err := Extract([]Box{{Name: "flat", X1: 1, Y1: 1, Z1: 0}}, 1, Options{}); err == nil {
		t.Error("degenerate box accepted")
	}
	// Panel budget guard.
	var many []Box
	for i := 0; i < 50; i++ {
		f := float64(i)
		many = append(many, Box{Name: "b", X0: f * 3, X1: f*3 + 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1})
	}
	if _, err := Extract(many, 1, Options{TargetPanels: 600}); err == nil {
		t.Error("panel budget not enforced")
	}
}

func TestMaxwellSymmetry(t *testing.T) {
	boxes := BusBoxes(itrs.N130, 3, 10*itrs.N130.Pitch())
	res, err := Extract(boxes, itrs.N130.EpsRel, Options{TargetPanels: 150, GroundPlane: true})
	if err != nil {
		t.Fatal(err)
	}
	if !symmetric(res.Maxwell, 0.05) {
		t.Error("Maxwell matrix not symmetric within 5%")
	}
	for i := 0; i < 3; i++ {
		if res.Maxwell.At(i, i) <= 0 {
			t.Errorf("diagonal %d not positive", i)
		}
		if res.SelfToGround(i) <= 0 {
			t.Errorf("self-to-ground %d not positive", i)
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j && res.Maxwell.At(i, j) >= 0 {
				t.Errorf("off-diagonal (%d,%d) not negative", i, j)
			}
		}
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
