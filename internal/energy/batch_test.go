package energy

import (
	"testing"

	"nanobus/internal/capmodel"
	"nanobus/internal/itrs"
)

func batchTestModel(t *testing.T) *Model {
	t.Helper()
	caps, err := capmodel.FromNode(itrs.N130, 32, capmodel.DefaultDecay(itrs.N130))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Caps: caps, Length: 0.01, Vdd: itrs.N130.Vdd, Crep: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// step transmits one word: a one-word StepBatch, the path a per-word
// caller takes.
func step(a *Accumulator, word uint64) {
	w := [1]uint64{word}
	a.StepBatch(w[:])
}

// batchTestWords is an address-like stream with jumps, holds and repeats.
func batchTestWords(n int) []uint64 {
	words := make([]uint64, n)
	w, rng := uint64(0x4000_1000), uint32(99)
	for i := range words {
		rng = rng*1664525 + 1013904223
		switch rng % 8 {
		case 0:
			w = uint64(rng)
		case 1: // hold
		default:
			w += 4
		}
		words[i] = w
	}
	return words
}

// TestStepBatchMatchesStep requires StepBatch to be bit-identical to
// one-word batches, with and without the memo, across batch split points.
func TestStepBatchMatchesStep(t *testing.T) {
	m := batchTestModel(t)
	words := batchTestWords(4096)
	for _, memo := range []bool{false, true} {
		ref := NewAccumulator(m)
		got := NewAccumulator(m)
		if memo {
			if err := ref.EnableMemo(4); err != nil {
				t.Fatal(err)
			}
			if err := got.EnableMemo(4); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range words {
			step(ref, w)
		}
		// Uneven split points exercise the first-word and mid-stream paths.
		got.StepBatch(words[:1])
		got.StepBatch(words[1:7])
		got.StepBatch(words[7:7]) // empty batch is a no-op
		got.StepBatch(words[7:1033])
		got.StepBatch(words[1033:])
		rs, gs := ref.State(), got.State()
		if rs.Cycles != gs.Cycles {
			t.Fatalf("memo=%v: cycles %d != %d", memo, rs.Cycles, gs.Cycles)
		}
		if ref.Total() != got.Total() {
			t.Fatalf("memo=%v: total %+v != %+v", memo, ref.Total(), got.Total())
		}
		if rs.Prev != gs.Prev {
			t.Fatalf("memo=%v: last %x != %x", memo, rs.Prev, gs.Prev)
		}
		for i := 0; i < m.n; i++ {
			if ref.Line(i) != got.Line(i) {
				t.Fatalf("memo=%v: line %d: %+v != %+v", memo, i, ref.Line(i), got.Line(i))
			}
		}
	}
}

// TestIdleNMatchesIdle checks the bulk idle counters: idle runs split
// any way count the same cycles as one run, and dissipate nothing.
func TestIdleNMatchesIdle(t *testing.T) {
	m := batchTestModel(t)
	ref, err := NewMultiAccumulator(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewMultiAccumulator(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref.IdleN(137)
	got.IdleN(100)
	got.IdleN(0)
	got.IdleN(37)
	rs, gs := ref.BusState(1), got.BusState(1)
	if rs.Cycles != gs.Cycles || rs.IdleCycles != gs.IdleCycles || gs.Cycles != 137 || gs.IdleCycles != 137 {
		t.Fatalf("cycles %d/%d != %d/%d, want 137/137", rs.Cycles, rs.IdleCycles, gs.Cycles, gs.IdleCycles)
	}
	if e := got.BusLines(1, make([]LineEnergy, m.n)); e != (LineEnergy{}) {
		t.Fatalf("idle cycles dissipated %+v", e)
	}
}

// TestStepAllocs is the alloc regression gate for the per-word hot path:
// a steady-state one-word batch must not allocate, memoized or direct. (The memo's
// miss path may allocate entry storage while warming; the gate measures
// the warmed state.)
func TestStepAllocs(t *testing.T) {
	m := batchTestModel(t)
	words := batchTestWords(1 << 10)
	for _, memo := range []bool{false, true} {
		acc := NewAccumulator(m)
		if memo {
			if err := acc.EnableMemo(0); err != nil {
				t.Fatal(err)
			}
		}
		acc.StepBatch(words) // warm the memo
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			step(acc, words[i&(len(words)-1)])
			i++
		})
		if allocs != 0 {
			t.Errorf("memo=%v: a one-word StepBatch allocates %v/op in steady state, want 0", memo, allocs)
		}
	}
}

// TestStepBatchAllocs is the alloc regression gate for the batch path:
// steady-state StepBatch must not allocate at all.
func TestStepBatchAllocs(t *testing.T) {
	m := batchTestModel(t)
	words := batchTestWords(1 << 10)
	for _, memo := range []bool{false, true} {
		acc := NewAccumulator(m)
		if memo {
			if err := acc.EnableMemo(0); err != nil {
				t.Fatal(err)
			}
		}
		acc.StepBatch(words) // warm the memo
		allocs := testing.AllocsPerRun(100, func() {
			acc.StepBatch(words)
		})
		if allocs != 0 {
			t.Errorf("memo=%v: StepBatch allocates %v/op in steady state, want 0", memo, allocs)
		}
	}
}
