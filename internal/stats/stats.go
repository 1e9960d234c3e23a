// Package stats provides the small streaming-statistics helpers used by
// the experiment harness (mean/max temperature summaries, energy
// fluctuation comparisons).
package stats

import "math"

// Stream accumulates count, mean, variance (Welford), min and max.
type Stream struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add observes one value.
func (s *Stream) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() uint64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Stream) Mean() float64 { return s.mean }

// Var returns the population variance.
func (s *Stream) Var() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Stream) Std() float64 { return math.Sqrt(s.Var()) }

// CoeffVar returns Std/Mean, the scale-free fluctuation measure used to
// compare IA vs DA energy variability (0 when the mean is 0).
func (s *Stream) CoeffVar() float64 {
	if s.mean == 0 { //nanolint:ignore floateq exact-zero guard before division by the mean
		return 0
	}
	return s.Std() / math.Abs(s.mean)
}

// Min returns the smallest observation (0 when empty).
func (s *Stream) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Stream) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Summary is a frozen snapshot of a Stream.
type Summary struct {
	N              uint64
	Mean, Std      float64
	Min, Max       float64
	CoefficientVar float64
}

// Summarize freezes the stream.
func Summarize(s *Stream) Summary {
	return Summary{
		N: s.N(), Mean: s.Mean(), Std: s.Std(),
		Min: s.Min(), Max: s.Max(), CoefficientVar: s.CoeffVar(),
	}
}
