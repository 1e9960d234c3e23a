package energy

import (
	"math"
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

// TestMemoTransitionBitIdentical is the memo's contract: for random word
// streams and bus widths, a bus counted through a tiny memo table (so
// keys are evicted and drained constantly) holds the same counts as a
// scalar Accumulator fed the same words, and reads the same energies bit
// for bit — after cold misses, replayed hits and evictions alike.
func TestMemoTransitionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 2, 7, 32, 33, 64} {
		m := memoTestModel(t, width)
		multi, err := NewMultiAccumulator(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := multi.EnableMemo(3); err != nil {
			t.Fatal(err)
		}
		scalar := NewAccumulator(m)
		words := addressStream(rng, 2000)
		got, want := make([]LineEnergy, width), make([]LineEnergy, width)
		for len(words) > 0 {
			chunk := words[:min(len(words), 1+rng.Intn(300))]
			words = words[len(chunk):]
			multi.StepBus(0, chunk)
			scalar.StepBatch(chunk)
			multi.Drain()
			gotTot, wantTot := multi.BusLines(0, got), scalar.Lines(want)
			if !sameLine(gotTot, wantTot) {
				t.Fatalf("width %d: memo total %+v != scalar %+v", width, gotTot, wantTot)
			}
			for i := range want {
				if !sameLine(got[i], want[i]) {
					t.Fatalf("width %d line %d: memo %+v != scalar %+v", width, i, got[i], want[i])
				}
			}
		}
		st := multi.Memo().Stats()
		if st.Hits == 0 || st.Misses == 0 {
			t.Errorf("width %d: address-like stream gave %d hits, %d misses", width, st.Hits, st.Misses)
		}
		if st.Entries > st.Capacity {
			t.Errorf("width %d: %d entries in a %d-slot table", width, st.Entries, st.Capacity)
		}
	}
}

// sameLine compares two energies component by component by bit pattern.
func sameLine(a, b LineEnergy) bool {
	return math.Float64bits(a.Self) == math.Float64bits(b.Self) &&
		math.Float64bits(a.CoupAdj) == math.Float64bits(b.CoupAdj) &&
		math.Float64bits(a.CoupNonAdj) == math.Float64bits(b.CoupNonAdj)
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

// TestMemoStatsAndHitRate counts probes on a table shared by two buses:
// the second bus's identical transition hits the first one's key, and a
// held word never reaches the table.
func TestMemoStatsAndHitRate(t *testing.T) {
	m := memoTestModel(t, 8)
	a, err := NewMultiAccumulator(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.EnableMemo(4); err != nil {
		t.Fatal(err)
	}
	memo := a.Memo()
	if memo.Stats().HitRate() != 0 {
		t.Error("hit rate nonzero before any lookup")
	}
	a.StepBus(0, []uint64{0, 0xFF})
	a.StepBus(1, []uint64{0, 0xFF})
	st := memo.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 || st.Capacity != 16 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry, 16 slots", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate %g, want 0.5", st.HitRate())
	}
	// A zero-diff transition never touches the cache.
	a.StepBus(0, []uint64{0xFF, 0xFF})
	if got := memo.Stats(); got.Hits+got.Misses != 2 {
		t.Errorf("no-op transition counted: %+v", got)
	}
}

func TestNewMemoValidation(t *testing.T) {
	if _, err := newMemo(-1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := newMemo(40); err == nil {
		t.Error("oversized table accepted")
	}
	memo, err := newMemo(0)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Capacity != 1<<DefaultMemoSizeLog2 {
		t.Errorf("default capacity %d, want %d", memo.Stats().Capacity, 1<<DefaultMemoSizeLog2)
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
