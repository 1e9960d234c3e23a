// Package geometry describes 2-D interconnect cross-section geometry: wire
// outlines, coplanar bus layouts, and the panel discretisation consumed by
// the boundary-element capacitance extractor. The coordinate system places
// the ground plane (the layer below the inter-layer dielectric) at y = 0,
// with wires above it; all lengths are in meters.
package geometry

import (
	"fmt"
	"math"
)

// Point is a 2-D point in the bus cross-section plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Segment is a directed straight boundary element.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment midpoint.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// Split divides the segment into n equal sub-segments.
func (s Segment) Split(n int) []Segment {
	if n < 1 {
		n = 1
	}
	out := make([]Segment, n)
	dx := (s.B.X - s.A.X) / float64(n)
	dy := (s.B.Y - s.A.Y) / float64(n)
	for i := 0; i < n; i++ {
		out[i] = Segment{
			A: Point{s.A.X + float64(i)*dx, s.A.Y + float64(i)*dy},
			B: Point{s.A.X + float64(i+1)*dx, s.A.Y + float64(i+1)*dy},
		}
	}
	return out
}

// Conductor is a closed outline (a polygon given as its boundary segments)
// carrying a name for reporting.
type Conductor struct {
	Name     string
	Boundary []Segment
}

// RectConductor builds a rectangular conductor with lower-left corner at
// (x, y), width w and height h. The boundary is ordered counter-clockwise.
func RectConductor(name string, x, y, w, h float64) Conductor {
	ll := Point{x, y}
	lr := Point{x + w, y}
	ur := Point{x + w, y + h}
	ul := Point{x, y + h}
	return Conductor{
		Name: name,
		Boundary: []Segment{
			{ll, lr}, // bottom
			{lr, ur}, // right
			{ur, ul}, // top
			{ul, ll}, // left
		},
	}
}

// PolygonConductor builds a conductor from a closed list of vertices
// (the last vertex connects back to the first).
func PolygonConductor(name string, vertices []Point) (Conductor, error) {
	if len(vertices) < 3 {
		return Conductor{}, fmt.Errorf("geometry: polygon needs >= 3 vertices, got %d", len(vertices))
	}
	segs := make([]Segment, len(vertices))
	for i := range vertices {
		segs[i] = Segment{vertices[i], vertices[(i+1)%len(vertices)]}
	}
	return Conductor{Name: name, Boundary: segs}, nil
}

// CircleConductor approximates a circular conductor of radius r centred at
// (cx, cy) with an n-gon; used by extractor validation tests against the
// analytic cylinder-over-ground-plane capacitance.
func CircleConductor(name string, cx, cy, r float64, n int) Conductor {
	if n < 8 {
		n = 8
	}
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = Point{cx + r*math.Cos(a), cy + r*math.Sin(a)}
	}
	//nanolint:ignore droppederr a regular n-gon with n >= 8 distinct vertices always passes polygon validation
	c, _ := PolygonConductor(name, pts)
	return c
}

// BusLayout describes a coplanar bus cross-section: n identical wires of
// width W and thickness T, separated by spacing S, with their bottom faces
// at height H above the ground plane (the inter-layer dielectric height),
// embedded in a uniform dielectric of relative permittivity EpsRel. This is
// the geometry of Fig. 1(a) of the paper.
type BusLayout struct {
	Wires   int
	W, T, S float64
	H       float64
	EpsRel  float64
}

// Validate checks the layout parameters.
func (b BusLayout) Validate() error {
	switch {
	case b.Wires < 1:
		return fmt.Errorf("geometry: bus needs >= 1 wire, got %d", b.Wires)
	case b.W <= 0 || b.T <= 0 || b.S < 0 || b.H <= 0:
		return fmt.Errorf("geometry: non-positive bus dimensions (w=%g t=%g s=%g h=%g)", b.W, b.T, b.S, b.H)
	case b.EpsRel < 1:
		return fmt.Errorf("geometry: relative permittivity %g < 1", b.EpsRel)
	}
	return nil
}

// Pitch returns the wire pitch W + S.
func (b BusLayout) Pitch() float64 { return b.W + b.S }

// Conductors lays out the wires left to right, centred on x = 0.
func (b BusLayout) Conductors() []Conductor {
	total := float64(b.Wires)*b.W + float64(b.Wires-1)*b.S
	x0 := -total / 2
	out := make([]Conductor, b.Wires)
	for i := 0; i < b.Wires; i++ {
		x := x0 + float64(i)*b.Pitch()
		out[i] = RectConductor(fmt.Sprintf("w%d", i), x, b.H, b.W, b.T)
	}
	return out
}

// Panel is one boundary element produced by discretisation, tagged with the
// conductor it belongs to.
type Panel struct {
	Segment
	Conductor int
}

// Discretize splits every boundary segment of every conductor into panels
// no longer than maxLen, returning at least minPerSegment panels per
// segment. The result is the collocation mesh for the extractor.
func Discretize(conductors []Conductor, maxLen float64, minPerSegment int) []Panel {
	if minPerSegment < 1 {
		minPerSegment = 1
	}
	var panels []Panel
	for ci, c := range conductors {
		for _, seg := range c.Boundary {
			n := minPerSegment
			if maxLen > 0 {
				if need := int(math.Ceil(seg.Length() / maxLen)); need > n {
					n = need
				}
			}
			for _, sub := range seg.Split(n) {
				panels = append(panels, Panel{Segment: sub, Conductor: ci})
			}
		}
	}
	return panels
}
