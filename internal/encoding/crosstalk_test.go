package encoding

import (
	"math/rand"
	"testing"
)

func TestCrosstalkClassCanonical(t *testing.T) {
	// 3-wire bus, classifying the middle wire (index 1).
	cases := []struct {
		name      string
		prev, cur uint64
		want      int
	}{
		{"all quiet", 0b000, 0b000, 0},
		{"all rise together", 0b000, 0b111, 0},
		{"middle rises alone", 0b000, 0b010, 2},
		{"middle rises, left rises too", 0b000, 0b011, 1},
		{"middle vs both anti-phase", 0b101, 0b010, 4},
		{"middle vs one anti-phase, one quiet", 0b001, 0b010, 3},
		{"middle quiet, both neighbours toggle", 0b101, 0b000, 2},
	}
	for _, c := range cases {
		if got := CrosstalkClass(c.prev, c.cur, 1, 3); got != c.want {
			t.Errorf("%s: class = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCrosstalkClassEdgeWire(t *testing.T) {
	// Edge wires have one neighbour: max class 2.
	if got := CrosstalkClass(0b01, 0b10, 0, 2); got != 2 {
		t.Errorf("edge anti-phase class = %d, want 2", got)
	}
	if got := CrosstalkClass(0b00, 0b01, 0, 2); got != 1 {
		t.Errorf("edge lone-rise class = %d, want 1", got)
	}
}

func TestCrosstalkClassMatchesCouplingCost(t *testing.T) {
	// Every adjacent pair enters the class sum twice, once from each of
	// its wires, as |di-dj|, while the coupling cost charges it once as
	// (di-dj)^2. The two agree (class sum == 2*couplingCostRef) exactly when
	// no pair switches in opposite directions, because |d| == d^2 for
	// |d| <= 1. Rising-only transitions guarantee that, so random
	// rising-only words pin the relation.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		prev := rng.Uint64() & 0xFFFF
		cur := prev | rng.Uint64()&0xFFFF // rising-only transitions
		classSum := 0
		for i := 0; i < 16; i++ {
			classSum += CrosstalkClass(prev, cur, i, 16)
		}
		cost := couplingCostRef(prev, cur, 16)
		if classSum != 2*cost {
			t.Fatalf("trial %d: class sum %d != 2*couplingCostRef %d (rising-only)", trial, classSum, cost)
		}
	}
}

func TestCrosstalkHistogram(t *testing.T) {
	h := NewCrosstalkHistogram(4)
	h.Observe(0b0000)
	h.Observe(0b1111) // all rise together: class 0 on every wire
	h.Observe(0b1010) // wires 0,2 fall: mixed classes
	if h.Total() != 8 {
		t.Fatalf("total = %d, want 8", h.Total())
	}
	if h.Counts[0] != 4 {
		t.Errorf("class-0 count = %d, want 4 (the common-mode transition)", h.Counts[0])
	}
	if h.MeanClass() <= 0 {
		t.Error("mean class not positive for toggling stream")
	}
	// Repeated word: all wires class 0.
	before := h.Counts[0]
	h.Observe(0b1010)
	if h.Counts[0] != before+4 {
		t.Error("repeated word did not record class 0 for all wires")
	}
	if h.Fraction(0)+h.Fraction(1)+h.Fraction(2)+h.Fraction(3)+h.Fraction(4) < 0.999 {
		t.Error("fractions do not sum to 1")
	}
	if h.Fraction(9) != 0 {
		t.Error("out-of-range class fraction != 0")
	}
}

func TestCrosstalkStreamsCompare(t *testing.T) {
	// An anti-phase toggling stream must grade far worse than a
	// sequential counting stream.
	seq := NewCrosstalkHistogram(16)
	tog := NewCrosstalkHistogram(16)
	for i := 0; i < 1000; i++ {
		seq.Observe(uint64(i))
		if i%2 == 0 {
			tog.Observe(0x5555)
		} else {
			tog.Observe(0xAAAA)
		}
	}
	if tog.MeanClass() < 2*seq.MeanClass() {
		t.Errorf("toggle stream class %.3f not far above sequential %.3f",
			tog.MeanClass(), seq.MeanClass())
	}
	// The anti-phase stream is pure class 4 (interior) and 2 (edges).
	if tog.Counts[1] != 0 || tog.Counts[3] != 0 {
		t.Errorf("anti-phase stream has odd classes: %v", tog.Counts)
	}
}

func TestHistogramBounds(t *testing.T) {
	h := NewCrosstalkHistogram(0)
	if h.Width != 1 {
		t.Errorf("width clamp = %d", h.Width)
	}
	h2 := NewCrosstalkHistogram(100)
	if h2.Width != 64 {
		t.Errorf("width clamp = %d", h2.Width)
	}
	var empty CrosstalkHistogram
	if empty.MeanClass() != 0 || empty.Fraction(0) != 0 {
		t.Error("empty histogram stats not zero")
	}
}
