package core

import (
	"context"
	"fmt"
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
	// Reset keeps the memo and its counters: the reused simulator has
	// probed it for both runs, the fresh one for one.
	if r, f := reused.MemoStats(), fresh.MemoStats(); r.Hits+r.Misses != 2*(f.Hits+f.Misses) {
		t.Errorf("reused memo stats %+v after two runs, fresh %+v after one", r, f)
	}
}

// TestMemoConfig checks the scalar MemoSizeLog2 contract: the size only
// sizes the transition-key memo, so every accepted value runs the same
// counts bit for bit, a disabled memo reports zero stats, and an
// out-of-range size is rejected.
func TestMemoConfig(t *testing.T) {
	words := make([]uint32, 3000)
	for i, w := range addressSlab(5, 1, len(words)) {
		words[i] = w
	}
	run := func(memo int) *Simulator {
		sim := newSim(t, Config{IntervalCycles: 100, MemoSizeLog2: memo})
		if _, err := sim.StepBatch(context.Background(), words); err != nil {
			t.Fatal(err)
		}
		if err := sim.Finish(); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	off := run(-1)
	for _, memo := range []int{0, 1} {
		on := run(memo)
		if on.TotalEnergy() != off.TotalEnergy() {
			t.Fatalf("memo 2^%d changed a scalar run: %+v vs %+v J", memo, on.TotalEnergy(), off.TotalEnergy())
		}
		sameSamples(t, fmt.Sprintf("memo 2^%d vs off", memo), on.Samples(), off.Samples())
		want := uint64(1) << energy.DefaultMemoSizeLog2
		if memo == 1 {
			want = 2
		}
		if st := on.MemoStats(); st.Capacity != want || st.Hits == 0 || st.Misses == 0 {
			t.Errorf("memo 2^%d: stats %+v, want hits and misses in %d slots", memo, st, want)
		}
	}
	if st := off.MemoStats(); st != (energy.MemoStats{}) {
		t.Errorf("memo-less simulator reports memo stats %+v, want zero", st)
	}
	if _, err := New(Config{Node: off.cfg.Node, MemoSizeLog2: 99}); err == nil {
		t.Error("absurd memo size accepted")
	}
}
