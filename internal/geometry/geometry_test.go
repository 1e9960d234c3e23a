package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

// perimeter returns the total boundary length of c.
func perimeter(c Conductor) float64 {
	p := 0.0
	for _, s := range c.Boundary {
		p += s.Length()
	}
	return p
}

func TestPointOps(t *testing.T) {
	p := Point{3, 4}
	q := Point{0, 0}
	if d := p.Dist(q); d != 5 {
		t.Errorf("Dist = %g, want 5", d)
	}
}

func TestSegmentLengthMidpoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{4, 0}}
	if s.Length() != 4 {
		t.Errorf("Length = %g", s.Length())
	}
	if m := s.Midpoint(); m != (Point{2, 0}) {
		t.Errorf("Midpoint = %+v", m)
	}
}

func TestSegmentSplit(t *testing.T) {
	s := Segment{Point{0, 0}, Point{1, 2}}
	parts := s.Split(4)
	if len(parts) != 4 {
		t.Fatalf("%d parts", len(parts))
	}
	if parts[0].A != s.A || parts[3].B != s.B {
		t.Error("split endpoints wrong")
	}
	// Contiguity and equal lengths.
	total := 0.0
	for i, p := range parts {
		total += p.Length()
		if i > 0 && p.A != parts[i-1].B {
			t.Errorf("gap between parts %d and %d", i-1, i)
		}
	}
	if math.Abs(total-s.Length()) > 1e-12 {
		t.Errorf("split lengths sum to %g, want %g", total, s.Length())
	}
	// n < 1 clamps to 1.
	if len(s.Split(0)) != 1 {
		t.Error("Split(0) != 1 part")
	}
}

func TestSplitProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64, n uint8) bool {
		// Constrain to a physically meaningful range (the extractor
		// works in meters at micron scale); quick generates extreme
		// float64s whose lengths overflow.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e3)
		}
		ax, ay, bx, by = clamp(ax), clamp(ay), clamp(bx), clamp(by)
		s := Segment{Point{ax, ay}, Point{bx, by}}
		k := int(n%16) + 1
		parts := s.Split(k)
		if len(parts) != k {
			return false
		}
		sum := 0.0
		for _, p := range parts {
			sum += p.Length()
		}
		return math.Abs(sum-s.Length()) <= 1e-9*(1+s.Length())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRectConductor(t *testing.T) {
	c := RectConductor("w", 1, 2, 3, 4)
	if len(c.Boundary) != 4 {
		t.Fatalf("%d segments", len(c.Boundary))
	}
	if p := perimeter(c); math.Abs(p-14) > 1e-12 {
		t.Errorf("perimeter = %g, want 14", p)
	}
	// Closed boundary.
	for i, s := range c.Boundary {
		next := c.Boundary[(i+1)%4]
		if s.B != next.A {
			t.Errorf("boundary not closed at segment %d", i)
		}
	}
}

func TestPolygonConductor(t *testing.T) {
	if _, err := PolygonConductor("bad", []Point{{0, 0}, {1, 1}}); err == nil {
		t.Error("2-vertex polygon accepted")
	}
	tri, err := PolygonConductor("tri", []Point{{0, 0}, {1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tri.Boundary) != 3 {
		t.Errorf("%d segments", len(tri.Boundary))
	}
	want := 2 + math.Sqrt2
	if math.Abs(perimeter(tri)-want) > 1e-12 {
		t.Errorf("perimeter = %g, want %g", perimeter(tri), want)
	}
}

func TestCircleConductor(t *testing.T) {
	c := CircleConductor("c", 5, 7, 2, 128)
	if len(c.Boundary) != 128 {
		t.Fatalf("%d segments", len(c.Boundary))
	}
	// Perimeter approaches 2*pi*r.
	if math.Abs(perimeter(c)-2*math.Pi*2) > 0.01 {
		t.Errorf("perimeter = %g, want ~%g", perimeter(c), 2*math.Pi*2)
	}
	// Minimum vertex count enforced.
	if got := len(CircleConductor("c", 0, 0, 1, 3).Boundary); got != 8 {
		t.Errorf("min polygon = %d segments, want 8", got)
	}
}

func TestBusLayoutConductors(t *testing.T) {
	b := BusLayout{Wires: 3, W: 2, T: 4, S: 1, H: 10, EpsRel: 2}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Pitch() != 3 {
		t.Errorf("Pitch = %g", b.Pitch())
	}
	cs := b.Conductors()
	if len(cs) != 3 {
		t.Fatalf("%d conductors", len(cs))
	}
	// Centred on x=0: total width 3*2+2*1 = 8, so first wire starts at -4.
	first := cs[0].Boundary[0].A
	if first.X != -4 || first.Y != 10 {
		t.Errorf("first corner = %+v, want (-4, 10)", first)
	}
	// Spacing between wires: wire 0 right edge at -2, wire 1 left at -1.
	w1 := cs[1].Boundary[0].A
	if w1.X != -1 {
		t.Errorf("wire 1 starts at %g, want -1", w1.X)
	}
}

func TestDiscretize(t *testing.T) {
	c := RectConductor("w", 0, 1, 2, 2)
	panels := Discretize([]Conductor{c}, 0.5, 1)
	// Each 2-long edge at maxLen 0.5 -> 4 panels; 4 edges -> 16.
	if len(panels) != 16 {
		t.Fatalf("%d panels, want 16", len(panels))
	}
	for _, p := range panels {
		if p.Conductor != 0 {
			t.Error("wrong conductor tag")
		}
		if p.Length() > 0.5+1e-12 {
			t.Errorf("panel length %g exceeds max", p.Length())
		}
	}
	// minPerSegment dominates when maxLen is large.
	panels = Discretize([]Conductor{c}, 100, 3)
	if len(panels) != 12 {
		t.Errorf("%d panels, want 12", len(panels))
	}
	// Zero/negative minPerSegment clamps to 1.
	panels = Discretize([]Conductor{c}, 0, 0)
	if len(panels) != 4 {
		t.Errorf("%d panels, want 4", len(panels))
	}
}
