package itrs

import (
	"math"
	"testing"

	"nanobus/internal/units"
)

func TestTable1Values(t *testing.T) {
	// Spot checks straight from the paper's Table 1.
	if N130.MetalLayers != 8 || N90.MetalLayers != 9 || N65.MetalLayers != 10 || N45.MetalLayers != 10 {
		t.Error("metal layer counts wrong")
	}
	if N130.WireWidth != 335e-9 {
		t.Errorf("130nm width = %g", N130.WireWidth)
	}
	if N45.CLine != 19.05e-12 {
		t.Errorf("45nm cline = %g", N45.CLine)
	}
	if N90.ClockHz != 3.99e9 {
		t.Errorf("90nm clock = %g", N90.ClockHz)
	}
	if N65.Vdd != 0.7 {
		t.Errorf("65nm vdd = %g", N65.Vdd)
	}
}

func TestAllNodesValid(t *testing.T) {
	for _, n := range Nodes() {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	good := N130
	cases := []func(*Node){
		func(n *Node) { n.Name = "" },
		func(n *Node) { n.MetalLayers = 0 },
		func(n *Node) { n.WireWidth = 0 },
		func(n *Node) { n.EpsRel = 0.5 },
		func(n *Node) { n.KILD = 0 },
		func(n *Node) { n.ClockHz = 0 },
		func(n *Node) { n.CLine = 0 },
	}
	for i, mutate := range cases {
		n := good
		mutate(&n)
		if err := n.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	n := N130
	if n.Spacing() != n.WireWidth {
		t.Error("spacing != width (ITRS assumption)")
	}
	if n.Pitch() != 2*n.WireWidth {
		t.Error("pitch != 2*width")
	}
	want := n.CLine + 2*n.CInter
	if n.CTotal() != want {
		t.Errorf("CTotal = %g, want %g", n.CTotal(), want)
	}
	if math.Abs(n.AspectRatio()-2) > 1e-9 {
		t.Errorf("aspect ratio = %g, want 2", n.AspectRatio())
	}
	if math.Abs(n.CyclePeriod()*n.ClockHz-1) > 1e-12 {
		t.Error("cycle period inconsistent")
	}
}

func TestRWireSelfConsistency(t *testing.T) {
	// Table 1's rwire must equal rho*l/(w*t) with the effective copper
	// resistivity — validates both the table transcription and the
	// resistivity constant.
	for _, n := range Nodes() {
		got := n.ResistancePerMeter()
		rel := math.Abs(got-n.RWire) / n.RWire
		if rel > 0.01 {
			t.Errorf("%s: recomputed rwire %.4g vs table %.4g (%.2f%% apart)",
				n.Name, got, n.RWire, 100*rel)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		n, ok := ByName(name)
		if !ok || n.Name != name {
			t.Errorf("ByName(%s) failed", name)
		}
	}
	if _, ok := ByName("22nm"); ok {
		t.Error("unknown node resolved")
	}
	if len(Names()) != 4 {
		t.Error("want 4 names")
	}
}

func TestScalingTrends(t *testing.T) {
	ns := Nodes()
	for i := 1; i < len(ns); i++ {
		prev, cur := ns[i-1], ns[i]
		if cur.WireWidth >= prev.WireWidth {
			t.Errorf("width did not shrink %s -> %s", prev.Name, cur.Name)
		}
		if cur.ClockHz <= prev.ClockHz {
			t.Errorf("clock did not rise %s -> %s", prev.Name, cur.Name)
		}
		if cur.Vdd >= prev.Vdd {
			t.Errorf("vdd did not fall %s -> %s", prev.Name, cur.Name)
		}
		if cur.KILD >= prev.KILD {
			t.Errorf("dielectric conductivity did not fall %s -> %s", prev.Name, cur.Name)
		}
		if cur.RWire <= prev.RWire {
			t.Errorf("wire resistance did not rise %s -> %s", prev.Name, cur.Name)
		}
	}
}

func TestLayerStack(t *testing.T) {
	for _, n := range Nodes() {
		stack := n.LayerStack()
		if len(stack) != n.MetalLayers {
			t.Fatalf("%s: %d layers, want %d", n.Name, len(stack), n.MetalLayers)
		}
		top := stack[len(stack)-1]
		if math.Abs(top.Thickness-n.WireThickness) > 1e-15 {
			t.Errorf("%s: top thickness %g != %g", n.Name, top.Thickness, n.WireThickness)
		}
		if math.Abs(top.ILDBelow-n.ILDHeight) > 1e-15 {
			t.Errorf("%s: top ILD %g != %g", n.Name, top.ILDBelow, n.ILDHeight)
		}
		m1 := stack[0]
		if m1.Width != float64(n.FeatureNm)*units.Nano {
			t.Errorf("%s: M1 width %g", n.Name, m1.Width)
		}
		// Monotone growth bottom to top.
		for i := 1; i < len(stack); i++ {
			if stack[i].Thickness < stack[i-1].Thickness-1e-15 {
				t.Errorf("%s: thickness not monotone at layer %d", n.Name, i+1)
			}
			if stack[i].Index != i+1 {
				t.Errorf("%s: layer index %d at position %d", n.Name, stack[i].Index, i)
			}
			if stack[i].Coverage != DefaultCoverage {
				t.Errorf("%s: coverage %g", n.Name, stack[i].Coverage)
			}
		}
	}
}
