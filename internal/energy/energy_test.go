package energy

import (
	"math"
	"math/rand"
	"testing"

	"nanobus/internal/capmodel"
	"nanobus/internal/itrs"
)

func testModel(t *testing.T, n int, node itrs.Node) *Model {
	t.Helper()
	caps, err := capmodel.FromNode(node, n, capmodel.DefaultDecay(node))
	if err != nil {
		t.Fatalf("capmodel.FromNode: %v", err)
	}
	m, err := New(Config{Caps: caps, Length: 0.01, Vdd: node.Vdd, Crep: 0})
	if err != nil {
		t.Fatalf("energy.New: %v", err)
	}
	return m
}

// bruteForce recomputes per-line energies directly from the paper's
// formulas without any of the incremental-optimisation tricks.
func bruteForce(m *Model, prev, cur uint64) []LineEnergy {
	n := m.n
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		pb := (prev >> uint(i)) & 1
		cb := (cur >> uint(i)) & 1
		switch {
		case pb == 0 && cb == 1:
			v[i] = m.vdd
		case pb == 1 && cb == 0:
			v[i] = -m.vdd
		}
	}
	out := make([]LineEnergy, n)
	for i := 0; i < n; i++ {
		if v[i] == 0 {
			continue
		}
		out[i].Self = 0.5 * m.selfCap[i] * v[i] * v[i]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			e := 0.5 * m.coup[i][j] * (v[i]*v[i] - v[i]*v[j])
			if j == i-1 || j == i+1 {
				out[i].CoupAdj += e
			} else {
				out[i].CoupNonAdj += e
			}
		}
	}
	return out
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestTransitionMatchesBruteForce(t *testing.T) {
	m := testModel(t, 16, itrs.N130)
	rng := rand.New(rand.NewSource(9))
	out := make([]LineEnergy, 16)
	for trial := 0; trial < 500; trial++ {
		prev := rng.Uint64() & 0xFFFF
		cur := rng.Uint64() & 0xFFFF
		if _, err := m.Transition(prev, cur, out); err != nil {
			t.Fatalf("Transition: %v", err)
		}
		want := bruteForce(m, prev, cur)
		for i := range want {
			if !relClose(out[i].Self, want[i].Self, 1e-12) ||
				!relClose(out[i].CoupAdj, want[i].CoupAdj, 1e-12) ||
				!relClose(out[i].CoupNonAdj, want[i].CoupNonAdj, 1e-12) {
				t.Fatalf("trial %d (%#x->%#x) line %d: got %+v, want %+v",
					trial, prev, cur, i, out[i], want[i])
			}
		}
	}
}

func TestSelfEnergyValue(t *testing.T) {
	// Single rising transition on line 0: Eself = 0.5*(cline*L)*Vdd^2.
	m := testModel(t, 8, itrs.N130)
	out := make([]LineEnergy, 8)
	if _, err := m.Transition(0, 1, out); err != nil {
		t.Fatalf("Transition: %v", err)
	}
	want := 0.5 * itrs.N130.CLine * 0.01 * itrs.N130.Vdd * itrs.N130.Vdd
	if !relClose(out[0].Self, want, 1e-12) {
		t.Errorf("self energy = %g, want %g", out[0].Self, want)
	}
	// Rising and falling transitions dissipate the same self energy.
	if _, err := m.Transition(1, 0, out); err != nil {
		t.Fatalf("Transition: %v", err)
	}
	if !relClose(out[0].Self, want, 1e-12) {
		t.Errorf("falling self energy = %g, want %g", out[0].Self, want)
	}
}

func TestMillerToggleDoubling(t *testing.T) {
	// Opposite transitions on adjacent lines: each line's adjacent
	// coupling energy is c*Vdd^2 (doubled); same-direction transitions
	// dissipate zero coupling energy in that pair.
	m := testModel(t, 2, itrs.N130)
	out := make([]LineEnergy, 2)
	c := m.coup[0][1]
	v2 := itrs.N130.Vdd * itrs.N130.Vdd

	// Toggle: 01 -> 10.
	if _, err := m.Transition(0b01, 0b10, out); err != nil {
		t.Fatalf("Transition: %v", err)
	}
	for i := 0; i < 2; i++ {
		if !relClose(out[i].CoupAdj, c*v2, 1e-12) {
			t.Errorf("toggle line %d coupling = %g, want %g", i, out[i].CoupAdj, c*v2)
		}
	}

	// Same direction: 00 -> 11.
	if _, err := m.Transition(0b00, 0b11, out); err != nil {
		t.Fatalf("Transition: %v", err)
	}
	for i := 0; i < 2; i++ {
		if out[i].CoupAdj != 0 {
			t.Errorf("same-direction line %d coupling = %g, want 0", i, out[i].CoupAdj)
		}
	}

	// Charge against quiet: 00 -> 01. Only the switching line dissipates.
	if _, err := m.Transition(0b00, 0b01, out); err != nil {
		t.Fatalf("Transition: %v", err)
	}
	if !relClose(out[0].CoupAdj, 0.5*c*v2, 1e-12) {
		t.Errorf("charge coupling = %g, want %g", out[0].CoupAdj, 0.5*c*v2)
	}
	if out[1].Total() != 0 {
		t.Errorf("quiet line dissipated %g", out[1].Total())
	}
}

func TestEnergyNonNegative(t *testing.T) {
	m := testModel(t, 32, itrs.N90)
	rng := rand.New(rand.NewSource(3))
	out := make([]LineEnergy, 32)
	for trial := 0; trial < 2000; trial++ {
		prev := rng.Uint64()
		cur := rng.Uint64()
		tot, err := m.Transition(prev, cur, out)
		if err != nil {
			t.Fatalf("Transition: %v", err)
		}
		for i, le := range out {
			if le.Self < 0 || le.CoupAdj < -1e-30 || le.CoupNonAdj < -1e-30 {
				t.Fatalf("negative energy on line %d: %+v (%#x -> %#x)", i, le, prev, cur)
			}
		}
		if tot.Total() < 0 {
			t.Fatalf("negative total energy %g", tot.Total())
		}
	}
}

func TestNoTransitionNoEnergy(t *testing.T) {
	m := testModel(t, 32, itrs.N65)
	out := make([]LineEnergy, 32)
	tot, err := m.Transition(0xDEADBEEF, 0xDEADBEEF, out)
	if err != nil {
		t.Fatalf("Transition: %v", err)
	}
	if tot.Total() != 0 {
		t.Errorf("identical words dissipated %g", tot.Total())
	}
}

func TestWorstCasePatternOrdering(t *testing.T) {
	// The paper's Sec. 3.3 example: the alternating pattern (every line
	// toggles in opposition) dissipates more total energy than the
	// centre-dip pattern, but the centre-dip pattern concentrates more
	// energy in the middle wire than its neighbours see on average.
	m := testModel(t, 5, itrs.N130)
	out := make([]LineEnergy, 5)

	// All low -> centre-dip impossible; the paper's patterns describe
	// direction per line: up up down up up means prev=00100, cur=11011.
	thermalWorst, err := m.Transition(0b00100, 0b11011, out)
	if err != nil {
		t.Fatalf("Transition: %v", err)
	}
	centre := out[2].Total()
	edge := out[0].Total()
	if centre <= edge {
		t.Errorf("centre line energy %g <= edge %g; expected concentration in centre", centre, edge)
	}

	energyWorst, err := m.Transition(0b01010, 0b10101, out)
	if err != nil {
		t.Fatalf("Transition: %v", err)
	}
	if energyWorst.Total() <= thermalWorst.Total() {
		t.Errorf("alternating pattern total %g <= centre-dip total %g; paper says alternating is the energy worst case",
			energyWorst.Total(), thermalWorst.Total())
	}
}

func TestNonAdjacentUnderestimation(t *testing.T) {
	// Dropping non-adjacent coupling must underestimate the middle wire's
	// energy in the thermal worst-case pattern (Sec. 3.3): the error
	// should be a few percent.
	m := testModel(t, 32, itrs.N130)
	out := make([]LineEnergy, 32)
	// All lines toggle: odd bits fall, even bits rise, except make the
	// middle line oppose its non-adjacent peers.
	prev := uint64(1 << 16)
	cur := ^prev & 0xFFFFFFFF
	if _, err := m.Transition(prev, cur, out); err != nil {
		t.Fatalf("Transition: %v", err)
	}
	mid := out[16]
	frac := mid.CoupNonAdj / mid.Total()
	if frac <= 0.01 || frac >= 0.2 {
		t.Errorf("non-adjacent share of middle wire = %.4f, want a few percent", frac)
	}
}

func TestAccumulator(t *testing.T) {
	m := testModel(t, 8, itrs.N130)
	acc := NewAccumulator(m)
	step(acc, 0x00) // first word: establishes state, no energy
	if acc.Total().Total() != 0 {
		t.Errorf("first word dissipated %g", acc.Total().Total())
	}
	step(acc, 0xFF)
	e1 := acc.Total().Total()
	if e1 <= 0 {
		t.Error("transition dissipated nothing")
	}
	step(acc, 0xFF) // same word: no energy
	if acc.Total().Total() != e1 {
		t.Error("repeated word dissipated energy")
	}
	if st := acc.State(); st.Cycles != 3 || st.IdleCycles != 0 {
		t.Errorf("cycles = %d idle = %d, want 3 and 0", st.Cycles, st.IdleCycles)
	}

	// Per-line sum equals total.
	sum := 0.0
	for i := 0; i < 8; i++ {
		sum += acc.Line(i).Total()
	}
	if !relClose(sum, acc.Total().Total(), 1e-12) {
		t.Errorf("per-line sum %g != total %g", sum, acc.Total().Total())
	}

	acc.Reset()
	if acc.Total().Total() != 0 || acc.State().Cycles != 0 {
		t.Error("Reset did not clear accumulation")
	}
	if acc.State().Prev != 0xFF {
		t.Error("Reset cleared the held bus word")
	}
}

func TestNewValidation(t *testing.T) {
	caps, err := capmodel.FromNode(itrs.N130, 4, capmodel.DefaultDecay(itrs.N130))
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Caps: nil, Length: 1, Vdd: 1},
		{Caps: caps, Length: 0, Vdd: 1},
		{Caps: caps, Length: 1, Vdd: 0},
		{Caps: caps, Length: 1, Vdd: 1, Crep: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTransitionOutLenMismatch(t *testing.T) {
	m := testModel(t, 8, itrs.N130)
	if _, err := m.Transition(0, 1, make([]LineEnergy, 4)); err == nil {
		t.Error("short out slice accepted")
	}
}

func TestCrepIncreasesSelfEnergy(t *testing.T) {
	caps, err := capmodel.FromNode(itrs.N130, 4, capmodel.DefaultDecay(itrs.N130))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Config{Caps: caps, Length: 0.01, Vdd: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	repeated, err := New(Config{Caps: caps, Length: 0.01, Vdd: 1.1, Crep: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	o1 := make([]LineEnergy, 4)
	o2 := make([]LineEnergy, 4)
	if _, err := plain.Transition(0, 1, o1); err != nil {
		t.Fatal(err)
	}
	if _, err := repeated.Transition(0, 1, o2); err != nil {
		t.Fatal(err)
	}
	wantDelta := 0.5 * 1e-12 * 1.1 * 1.1
	if !relClose(o2[0].Self-o1[0].Self, wantDelta, 1e-12) {
		t.Errorf("Crep self-energy delta = %g, want %g", o2[0].Self-o1[0].Self, wantDelta)
	}
	if o2[0].CoupAdj != o1[0].CoupAdj {
		t.Error("Crep changed coupling energy")
	}
}
