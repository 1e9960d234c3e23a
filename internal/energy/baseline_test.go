package energy

import (
	"math"
	"math/rand"
	"testing"

	"nanobus/internal/capmodel"
	"nanobus/internal/itrs"
)

// TestPerLineSumsToWholeBusBaseline is the paper's consistency claim: its
// per-line attribution must sum to exactly the whole-bus energy of the
// Sotiriadis-style baseline for every transition.
func TestPerLineSumsToWholeBusBaseline(t *testing.T) {
	m := testModel(t, 24, itrs.N90)
	rng := rand.New(rand.NewSource(77))
	out := make([]LineEnergy, 24)
	for trial := 0; trial < 1000; trial++ {
		prev := rng.Uint64()
		cur := rng.Uint64()
		perLine, err := m.Transition(prev, cur, out)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := m.WholeBusTransition(prev, cur)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(perLine.Total(), whole, 1e-10) {
			t.Fatalf("trial %d: per-line sum %g != whole-bus %g", trial, perLine.Total(), whole)
		}
	}
}

func TestWholeBusNilModel(t *testing.T) {
	var m *Model
	if _, err := m.WholeBusTransition(0, 1); err == nil {
		t.Error("nil model accepted")
	}
}

func TestActivityEnergyBaseline(t *testing.T) {
	caps, err := capmodel.FromNode(itrs.N130, 8, capmodel.DefaultDecay(itrs.N130))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Caps: caps, Length: 0.01, Vdd: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	// alpha=1, 1 cycle: every wire's full self energy.
	e, err := m.ActivityEnergy(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * 0.5 * itrs.N130.CLine * 0.01 * 1.1 * 1.1
	if math.Abs(e-want) > 1e-12*want {
		t.Errorf("activity energy = %g, want %g", e, want)
	}
	// Linear in alpha and cycles.
	e2, err := m.ActivityEnergy(0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(e2, 5*e, 1e-12) {
		t.Errorf("scaling wrong: %g vs %g", e2, 5*e)
	}
	if _, err := m.ActivityEnergy(-0.1, 1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := m.ActivityEnergy(1.1, 1); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

// TestActivityBaselineMissesCoupling shows why the paper rejects
// activity-only models: on toggle-heavy traffic the baseline (even with a
// perfectly measured alpha) undercounts energy because coupling dominates.
func TestActivityBaselineMissesCoupling(t *testing.T) {
	m := testModel(t, 16, itrs.N130)
	acc := NewAccumulator(m)
	cycles := uint64(200)
	transitions := 0
	prev := uint64(0x5555)
	step(acc, prev)
	for i := uint64(1); i < cycles; i++ {
		cur := prev ^ 0xFFFF // full toggle, alternating pattern
		step(acc, cur)
		transitions += 16
		prev = cur
	}
	alpha := float64(transitions) / float64(16*(cycles-1))
	baseline, err := m.ActivityEnergy(alpha, cycles-1)
	if err != nil {
		t.Fatal(err)
	}
	actual := acc.Total().Total()
	if actual <= baseline {
		t.Errorf("coupling-aware energy %g <= activity baseline %g on toggle traffic", actual, baseline)
	}
	if actual < 1.5*baseline {
		t.Errorf("coupling should dominate: actual %g vs baseline %g", actual, baseline)
	}
}
