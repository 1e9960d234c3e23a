package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nanobus/internal/itrs"
	"nanobus/internal/units"
)

// The exact propagators must obey the laws of a linear, mirror-symmetric
// RC network, checked here at every Network width and Grid shape that the
// RK4 twin tests use. rise(P) is the temperature after a power schedule P
// minus the temperature after an idle schedule, from the same start state
// over the same dt schedule.
//
//   - Superposition: rise(P1+P2) = rise(P1) + rise(P2).
//   - Power linearity: rise(a·P) = a·rise(P).
//   - Mirror symmetry: reversing the start state and every power interval
//     reverses the temperatures. For a Grid, reversing the bus-major slab
//     reverses both the wires within each bus and the bus order.
//
// The laws are exact in real arithmetic; the tolerances below bound the
// rounding of ~320 K temperatures (one ulp is 5.7e-14 K).
//
// Mutations each law catches (checked against a mutated copy):
//   - superposition and linearity: an Advance that returns early on an
//     idle (nil) interval, in Network or Grid;
//   - mirror: dropping the last lateral link from the eigenproblem
//     (newPropagator's e, or Grid.factor's intra-bus ea or inter-bus eb).
//
// The laws are blind to an affine mistake such as dropping the constant
// ambient and inter-layer terms from the steady state; the RK4 twins
// (TestPropagatorMatchesRK4, TestGridMatchesRK4) catch that one.

// lawSystem is one thermal network under test: Network or Grid.
type lawSystem interface {
	Advance(dt float64, power []float64) error
	Temps(dst []float64) []float64
	SetTemps(t []float64) error
}

type lawCase struct {
	name string
	n    int // nodes: wires, or buses x wires
	mk   func() (lawSystem, error)
}

func lawCases() []lawCase {
	var cases []lawCase
	for _, w := range []int{1, 2, 8, 32} {
		cases = append(cases, lawCase{fmt.Sprintf("network/w%d", w), w, func() (lawSystem, error) {
			return NewFromNode(itrs.N90, w, NodeOptions{})
		}})
	}
	for _, s := range []struct{ wires, buses int }{{8, 1}, {4, 2}, {8, 4}, {2, 8}} {
		cases = append(cases, lawCase{fmt.Sprintf("grid/%dx%d", s.buses, s.wires), s.buses * s.wires, func() (lawSystem, error) {
			return NewGridFromNode(itrs.N90, s.wires, s.buses, GridNodeOptions{})
		}})
	}
	return cases
}

// lawSchedule is a piecewise-constant power schedule: power[s] (nil for
// an idle interval) held for dt[s] seconds.
type lawSchedule struct {
	dt    []float64
	power [][]float64
}

// randomSchedule draws a schedule of mixed interval lengths around the
// 100K-cycle interval, with every fourth interval idle.
func randomSchedule(rng *rand.Rand, n int) lawSchedule {
	var s lawSchedule
	for step := 0; step < 12; step++ {
		s.dt = append(s.dt, []float64{1e-4, 5.95e-5, 1e-3, 2e-5}[step%4])
		var p []float64
		if step%4 != 3 {
			p = randomPower(rng, n)
		}
		s.power = append(s.power, p)
	}
	return s
}

// mapPower returns the schedule with f applied to every interval's power.
func (s lawSchedule) mapPower(f func(i int, p []float64) []float64) lawSchedule {
	out := lawSchedule{dt: s.dt}
	for i, p := range s.power {
		out.power = append(out.power, f(i, p))
	}
	return out
}

// final builds a fresh system, sets it to start and runs the schedule.
func (c lawCase) final(t *testing.T, start []float64, s lawSchedule) []float64 {
	t.Helper()
	sys, err := c.mk()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetTemps(start); err != nil {
		t.Fatal(err)
	}
	for i, dt := range s.dt {
		if err := sys.Advance(dt, s.power[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sys.Temps(nil)
}

// rise is final(P) - final(idle) from the same start over the same dts.
func (c lawCase) rise(t *testing.T, start []float64, s lawSchedule) []float64 {
	t.Helper()
	idle := lawSchedule{dt: s.dt, power: make([][]float64, len(s.dt))}
	hot, cold := c.final(t, start, s), c.final(t, start, idle)
	for i := range hot {
		hot[i] -= cold[i]
	}
	return hot
}

// warmStart is an uneven start state 0-5 K above ambient.
func warmStart(rng *rand.Rand, n int) []float64 {
	start := make([]float64, n)
	for i := range start {
		start[i] = units.AmbientK + 5*rng.Float64()
	}
	return start
}

// lawCheck compares got to want elementwise against tol (kelvin), after
// requiring that want is not vacuous (some rise above 1 mK), and logs the
// largest error so the tolerance can be re-derived.
func lawCheck(t *testing.T, law string, got, want []float64, tol float64) {
	t.Helper()
	var maxErr, maxWant float64
	for i := range want {
		maxErr = math.Max(maxErr, math.Abs(got[i]-want[i]))
		maxWant = math.Max(maxWant, math.Abs(want[i]))
	}
	if maxWant < 1e-3 {
		t.Fatalf("%s: largest expected rise %g K, test is vacuous", law, maxWant)
	}
	t.Logf("%s: max |error| %.3g K (largest value %.3g K)", law, maxErr, maxWant)
	if maxErr > tol {
		t.Errorf("%s: max |error| %g K > %g K\n got  %v\n want %v", law, maxErr, tol, got, want)
	}
}

// Largest errors measured over all eight shapes on linux/amd64 (Go 1.24):
// superposition 4.0e-13 K, linearity 5.7e-13 K, mirror 4.2e-12 K (the
// 32-wire network, whose step is a dense 32x32 matvec). Each tolerance is
// about 20x its measurement.
const (
	superpositionTol = 1e-11
	linearityTol     = 1e-11
	mirrorTol        = 1e-10
)

// TestPropagatorSuperposition: rise(P1+P2) = rise(P1) + rise(P2).
func TestPropagatorSuperposition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range lawCases() {
		t.Run(c.name, func(t *testing.T) {
			n := c.n
			start := warmStart(rng, n)
			p1, p2 := randomSchedule(rng, n), randomSchedule(rng, n)
			p2.dt = p1.dt
			sum := p1.mapPower(func(i int, p []float64) []float64 {
				q := p2.power[i]
				switch {
				case p == nil:
					return q
				case q == nil:
					return p
				}
				q = slices.Clone(q)
				for j := range q {
					q[j] += p[j]
				}
				return q
			})
			r1, r2 := c.rise(t, start, p1), c.rise(t, start, p2)
			for i := range r1 {
				r1[i] += r2[i]
			}
			lawCheck(t, "superposition", c.rise(t, start, sum), r1, superpositionTol)
		})
	}
}

// TestPropagatorPowerLinearity: rise(a·P) = a·rise(P).
func TestPropagatorPowerLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range lawCases() {
		t.Run(c.name, func(t *testing.T) {
			n := c.n
			start := warmStart(rng, n)
			sched := randomSchedule(rng, n)
			base := c.rise(t, start, sched)
			for _, a := range []float64{0.3, 2.5} {
				scaled := sched.mapPower(func(_ int, p []float64) []float64 {
					q := slices.Clone(p)
					for j := range q {
						q[j] *= a
					}
					return q
				})
				want := make([]float64, n)
				for i := range want {
					want[i] = a * base[i]
				}
				lawCheck(t, "linearity", c.rise(t, start, scaled), want, linearityTol)
			}
		})
	}
}

// TestPropagatorMirrorSymmetry: reversing the start state and the power
// reverses the temperatures.
func TestPropagatorMirrorSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range lawCases() {
		t.Run(c.name, func(t *testing.T) {
			n := c.n
			start := warmStart(rng, n)
			sched := randomSchedule(rng, n)
			mirrored := sched.mapPower(func(_ int, p []float64) []float64 {
				q := slices.Clone(p)
				slices.Reverse(q)
				return q
			})
			mStart := slices.Clone(start)
			slices.Reverse(mStart)
			want := c.final(t, start, sched)
			slices.Reverse(want)
			got := c.final(t, mStart, mirrored)
			// Compare rises over ambient, so the vacuity check sees heating.
			for i := range got {
				got[i] -= units.AmbientK
				want[i] -= units.AmbientK
			}
			lawCheck(t, "mirror", got, want, mirrorTol)
		})
	}
}
