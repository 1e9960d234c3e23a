package stats

import (
	"math"
	"testing"
)

func TestStreamBasics(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", s.Mean())
	}
	if math.Abs(s.Std()-2) > 1e-12 {
		t.Errorf("Std = %g, want 2", s.Std())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
	if math.Abs(s.CoeffVar()-0.4) > 1e-12 {
		t.Errorf("CoeffVar = %g, want 0.4", s.CoeffVar())
	}
}

func TestEmptyStream(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 || s.CoeffVar() != 0 {
		t.Error("empty stream not all zero")
	}
}

func TestSummarize(t *testing.T) {
	var three Stream
	for _, x := range []float64{1, 2, 3} {
		three.Add(x)
	}
	if sum := Summarize(&three); sum.N != 3 || math.Abs(sum.Mean-2) > 1e-12 {
		t.Errorf("Summarize = %+v", sum)
	}
	var s Stream
	s.Add(10)
	frozen := Summarize(&s)
	if frozen.N != 1 || frozen.Mean != 10 || frozen.Min != 10 || frozen.Max != 10 {
		t.Errorf("Summarize = %+v", frozen)
	}
}

func TestSingleAndNegative(t *testing.T) {
	var s Stream
	s.Add(-5)
	if s.Min() != -5 || s.Max() != -5 || s.Mean() != -5 || s.Std() != 0 {
		t.Error("single negative observation mishandled")
	}
	if s.CoeffVar() != 0 {
		t.Errorf("CoeffVar = %g, want 0 for zero Std", s.CoeffVar())
	}
}
