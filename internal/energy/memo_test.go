package energy

import (
	"math/rand"
	"testing"

	"nanobus/internal/capmodel"
	"nanobus/internal/itrs"
)

func memoTestModel(t *testing.T, width int) *Model {
	t.Helper()
	caps, err := capmodel.FromNode(itrs.N130, width, capmodel.DefaultDecay(itrs.N130))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Caps: caps, Length: 0.01, Vdd: itrs.N130.Vdd, Crep: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// addressStream mimics bus traffic: mostly sequential steps with occasional
// random jumps and repeats, the locality regime the memo exploits.
func addressStream(rng *rand.Rand, n int) []uint64 {
	words := make([]uint64, n)
	w := uint64(rng.Uint32())
	for i := range words {
		switch rng.Intn(10) {
		case 0:
			w = rng.Uint64() // far jump
		case 1:
			// repeat w: a held bus
		default:
			w += 4 // sequential access
		}
		words[i] = w
	}
	return words
}

// TestMemoTransitionBitIdentical is the tentpole property: for random word
// streams and bus widths the memoized Transition is bit-identical to the
// direct kernel — both on cold misses and on replayed hits.
func TestMemoTransitionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 2, 7, 32, 33, 64} {
		m := memoTestModel(t, width)
		memo, err := NewMemo(m, 8) // small table: exercises eviction too
		if err != nil {
			t.Fatal(err)
		}
		words := addressStream(rng, 2000)
		wantOut := make([]LineEnergy, width)
		gotOut := make([]LineEnergy, width)
		prev := uint64(0)
		for k, cur := range words {
			wantTot, err := m.Transition(prev, cur, wantOut)
			if err != nil {
				t.Fatal(err)
			}
			gotTot, err := memo.Transition(prev, cur, gotOut)
			if err != nil {
				t.Fatal(err)
			}
			if gotTot != wantTot {
				t.Fatalf("width %d step %d: memo total %+v != direct %+v", width, k, gotTot, wantTot)
			}
			for i := range wantOut {
				if gotOut[i] != wantOut[i] {
					t.Fatalf("width %d step %d line %d: memo %+v != direct %+v", width, k, i, gotOut[i], wantOut[i])
				}
			}
			prev = cur
		}
		st := memo.Stats()
		if st.Hits+st.Misses == 0 {
			t.Errorf("width %d: no lookups recorded", width)
		}
		if st.Hits == 0 {
			t.Errorf("width %d: address-like stream produced zero hits", width)
		}
		if st.Entries > st.Capacity {
			t.Errorf("width %d: %d entries in a %d-slot table", width, st.Entries, st.Capacity)
		}
	}
}

// TestAccumulatorMemoBitIdentical drives two accumulators — one after
// EnableMemo, one not — through identical streams and requires
// bit-identical per-line and total accumulations: on the scalar
// accumulator EnableMemo only validates the size.
func TestAccumulatorMemoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, width := range []int{3, 32, 33} {
		m := memoTestModel(t, width)
		plain := NewAccumulator(m)
		memod := NewAccumulator(m)
		if err := memod.EnableMemo(6); err != nil {
			t.Fatal(err)
		}
		for _, w := range addressStream(rng, 5000) {
			plain.Step(w)
			memod.Step(w)
		}
		if plain.Total() != memod.Total() {
			t.Fatalf("width %d: totals diverge: %+v vs %+v", width, plain.Total(), memod.Total())
		}
		for i := 0; i < width; i++ {
			if plain.Line(i) != memod.Line(i) {
				t.Fatalf("width %d line %d: %+v vs %+v", width, i, plain.Line(i), memod.Line(i))
			}
		}
		if plain.Last() != memod.Last() || plain.Cycles() != memod.Cycles() {
			t.Fatalf("width %d: bus state diverged", width)
		}
	}
}

func TestMemoStatsAndHitRate(t *testing.T) {
	m := memoTestModel(t, 8)
	memo, err := NewMemo(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats().HitRate() != 0 {
		t.Error("hit rate nonzero before any lookup")
	}
	out := make([]LineEnergy, 8)
	if _, err := memo.Transition(0, 0xFF, out); err != nil {
		t.Fatal(err)
	}
	if _, err := memo.Transition(0, 0xFF, out); err != nil {
		t.Fatal(err)
	}
	st := memo.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 || st.Capacity != 16 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry, 16 slots", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate %g, want 0.5", st.HitRate())
	}
	// A zero-diff transition never touches the cache.
	if _, err := memo.Transition(7, 7, out); err != nil {
		t.Fatal(err)
	}
	if got := memo.Stats(); got.Hits+got.Misses != 2 {
		t.Errorf("no-op transition counted: %+v", got)
	}
	if memo.Model() != m {
		t.Error("Model() accessor broken")
	}
}

func TestNewMemoValidation(t *testing.T) {
	m := memoTestModel(t, 4)
	if _, err := NewMemo(nil, 0); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewMemo(m, -1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewMemo(m, 40); err == nil {
		t.Error("oversized table accepted")
	}
	memo, err := NewMemo(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Capacity != 1<<DefaultMemoSizeLog2 {
		t.Errorf("default capacity %d, want %d", memo.Stats().Capacity, 1<<DefaultMemoSizeLog2)
	}
	out := make([]LineEnergy, 3)
	if _, err := memo.Transition(0, 1, out); err == nil {
		t.Error("wrong out length accepted")
	}
}

func TestAccumulatorResetAll(t *testing.T) {
	m := memoTestModel(t, 16)
	acc := NewAccumulator(m)
	if err := acc.EnableMemo(0); err != nil {
		t.Fatal(err)
	}
	words := []uint64{0x10, 0x14, 0x18, 0x9999, 0x1C}
	run := func() (LineEnergy, uint64) {
		for _, w := range words {
			acc.Step(w)
		}
		acc.Idle()
		return acc.Total(), acc.Cycles()
	}
	tot1, cyc1 := run()
	acc.ResetAll()
	if acc.Total() != (LineEnergy{}) || acc.Cycles() != 0 || acc.IdleCycles() != 0 {
		t.Fatalf("ResetAll left residue: total %+v cycles %d", acc.Total(), acc.Cycles())
	}
	if acc.Last() != 0 {
		t.Fatalf("ResetAll kept held word %#x", acc.Last())
	}
	tot2, cyc2 := run()
	if tot1 != tot2 || cyc1 != cyc2 {
		t.Fatalf("replay after ResetAll differs: %+v/%d vs %+v/%d", tot1, cyc1, tot2, cyc2)
	}
	// ResetAll empties the count window: a reset accumulator's state
	// carries zero toggle and pair counts.
	acc.ResetAll()
	st := acc.State()
	for i, n := range st.Toggles {
		if n != 0 {
			t.Errorf("ResetAll left %d toggles on wire %d", n, i)
		}
	}
	for k, p := range st.Pairs {
		if p != 0 {
			t.Errorf("ResetAll left pair count %d at %d", p, k)
		}
	}
}
