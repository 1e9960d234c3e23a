package core

import (
	"math/rand"
	"testing"

	"nanobus/internal/encoding"
	"nanobus/internal/energy"
)

// driveRandom pushes a deterministic pseudo-random word/idle mix through the
// simulator and returns its observable end state.
func driveRandom(t *testing.T, s *Simulator, seed int64, n int) (samples []Sample, total, maxT float64, cycles uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			s.StepIdle()
		} else {
			s.StepWord(rng.Uint32())
		}
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	mt, _ := s.Network().MaxTemp()
	return s.Samples(), s.TotalEnergy().Total(), mt, s.Cycles()
}

// TestResetReplaysBitIdentically is the sweep-reuse contract: a fresh
// simulator and a reset one must produce bit-identical samples, totals,
// temperatures and cycle counts on the same input.
func TestResetReplaysBitIdentically(t *testing.T) {
	cfg := Config{CouplingDepth: -1, IntervalCycles: 250, Encoder: encoding.NewBI()}
	reused := newSim(t, cfg)
	s1, e1, t1, c1 := driveRandom(t, reused, 11, 2000)
	// Copy the sample slice: Reset nils the simulator's view.
	first := append([]Sample(nil), s1...)

	reused.Reset()
	if reused.Cycles() != 0 || reused.TotalEnergy().Total() != 0 || reused.Samples() != nil || reused.Err() != nil {
		t.Fatal("Reset left residue in counters/samples")
	}
	if mt, _ := reused.Network().MaxTemp(); mt != reused.Network().Ambient() {
		t.Fatalf("Reset left wires at %g K, ambient %g K", mt, reused.Network().Ambient())
	}

	s2, e2, t2, c2 := driveRandom(t, reused, 11, 2000)
	fresh := newSim(t, cfg)
	s3, e3, t3, c3 := driveRandom(t, fresh, 11, 2000)

	if e1 != e2 || e1 != e3 || t1 != t2 || t1 != t3 || c1 != c2 || c1 != c3 {
		t.Fatalf("runs diverge: energy %v/%v/%v, maxT %v/%v/%v, cycles %v/%v/%v",
			e1, e2, e3, t1, t2, t3, c1, c2, c3)
	}
	if len(first) != len(s2) || len(first) != len(s3) {
		t.Fatalf("sample counts diverge: %d/%d/%d", len(first), len(s2), len(s3))
	}
	sameSample := func(a, b Sample) bool {
		// WireTemps is nil here (TrackWireTemps off); compare scalar fields.
		return a.EndCycle == b.EndCycle && a.Energy == b.Energy &&
			a.Self == b.Self && a.CoupAdj == b.CoupAdj && a.CoupNonAdj == b.CoupNonAdj &&
			a.AvgTemp == b.AvgTemp && a.MaxTemp == b.MaxTemp && a.MaxWire == b.MaxWire
	}
	for i := range first {
		if !sameSample(first[i], s2[i]) || !sameSample(first[i], s3[i]) {
			t.Fatalf("sample %d diverges: %+v vs %+v vs %+v", i, first[i], s2[i], s3[i])
		}
	}
	// The scalar kernel counts pair patterns and keeps no memo.
	if st := reused.MemoStats(); st != (energy.MemoStats{}) {
		t.Errorf("scalar simulator reports memo stats %+v, want zero", st)
	}
}

// TestMemoConfig checks the scalar MemoSizeLog2 contract: the size only
// sizes the multi-bus memo, so every accepted value runs the same count
// kernel bit for bit and reports zero memo stats, and an out-of-range
// size is still rejected.
func TestMemoConfig(t *testing.T) {
	on := newSim(t, Config{IntervalCycles: 100})
	off := newSim(t, Config{IntervalCycles: 100, MemoSizeLog2: -1})
	_, eOn, tOn, _ := driveRandom(t, on, 5, 1500)
	_, eOff, tOff, _ := driveRandom(t, off, 5, 1500)
	if eOn != eOff || tOn != tOff {
		t.Fatalf("MemoSizeLog2 changed a scalar run: %v/%v J, %v/%v K", eOn, eOff, tOn, tOff)
	}
	for _, sim := range []*Simulator{on, off} {
		if st := sim.MemoStats(); st != (energy.MemoStats{}) {
			t.Errorf("scalar simulator reports memo stats %+v, want zero", st)
		}
	}
	if _, err := New(Config{Node: on.cfg.Node, MemoSizeLog2: 99}); err == nil {
		t.Error("absurd memo size accepted")
	}
}
