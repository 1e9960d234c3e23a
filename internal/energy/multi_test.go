package energy

import (
	"math/rand"
	"testing"

	"nanobus/internal/itrs"
)

// TestMultiAccumulatorMatchesScalar drives K buses through a
// MultiAccumulator and the same word streams through K independent scalar
// Accumulators, in several rounds with drains in between, and requires
// bit-identical window energies.
func TestMultiAccumulatorMatchesScalar(t *testing.T) {
	const width, buses = 16, 5
	m := testModel(t, width, itrs.N90)

	multi, err := NewMultiAccumulator(m, buses)
	if err != nil {
		t.Fatalf("NewMultiAccumulator: %v", err)
	}
	if err := multi.EnableMemo(6); err != nil { // tiny table to force evictions
		t.Fatalf("EnableMemo: %v", err)
	}

	scalars := make([]*Accumulator, buses)
	for k := range scalars {
		scalars[k] = NewAccumulator(m)
	}

	rng := rand.New(rand.NewSource(7))
	const rounds, perRound = 6, 400
	words := make([]uint64, perRound)
	lineBuf := make([]LineEnergy, width)
	scalarLines := make([]LineEnergy, width)
	for r := 0; r < rounds; r++ {
		for k := 0; k < buses; k++ {
			for i := range words {
				// Mix of sequential and random patterns so some
				// transitions repeat (memo hits) and some do not.
				if rng.Intn(3) == 0 {
					words[i] = rng.Uint64()
				} else {
					words[i] = uint64(r*perRound+i) + uint64(k)<<8
				}
			}
			multi.StepBus(k, words)
			scalars[k].StepBatch(words)
		}
		multi.AddCycles(perRound)

		multi.Drain()
		for k := 0; k < buses; k++ {
			got := multi.BusLines(k, lineBuf)
			want := scalars[k].Lines(scalarLines)
			for j := range lineBuf {
				if !sameLine(lineBuf[j], scalarLines[j]) {
					t.Fatalf("round %d bus %d line %d: multi %+v scalar %+v",
						r, k, j, lineBuf[j], scalarLines[j])
				}
			}
			if !sameLine(got, want) {
				t.Fatalf("round %d bus %d total: multi %+v scalar %+v", r, k, got, want)
			}
		}
		if multi.Cycles() != scalars[0].Cycles() {
			t.Fatalf("round %d cycles: multi %d scalar %d", r, multi.Cycles(), scalars[0].Cycles())
		}
		// Reset windows on both sides (held words persist), as flush does.
		multi.Reset()
		for k := range scalars {
			scalars[k].Reset()
		}
	}
}

// TestMultiAccumulatorIdleAndState exercises IdleN, the BusState/
// SetBusState round trip, and ResetAll.
func TestMultiAccumulatorIdleAndState(t *testing.T) {
	const width, buses = 8, 3
	m := testModel(t, width, itrs.N130)
	a, err := NewMultiAccumulator(m, buses)
	if err != nil {
		t.Fatalf("NewMultiAccumulator: %v", err)
	}
	if err := a.EnableMemo(0); err != nil {
		t.Fatalf("EnableMemo: %v", err)
	}
	words := []uint64{0x1, 0x3, 0x7, 0xf, 0x1f}
	for k := 0; k < buses; k++ {
		a.StepBus(k, words)
	}
	a.AddCycles(uint64(len(words)))
	a.IdleN(10)
	if a.Cycles() != 15 || a.IdleCycles() != 10 {
		t.Fatalf("cycles=%d idle=%d, want 15/10", a.Cycles(), a.IdleCycles())
	}

	a.Drain()
	st := a.BusState(1)
	if st.Prev != 0x1f || st.First {
		t.Fatalf("bus state prev=%#x first=%v", st.Prev, st.First)
	}

	b, err := NewMultiAccumulator(m, buses)
	if err != nil {
		t.Fatalf("NewMultiAccumulator: %v", err)
	}
	if err := b.SetBusState(1, st); err != nil {
		t.Fatalf("SetBusState: %v", err)
	}
	got := b.BusState(1)
	if got.Prev != st.Prev || got.Total != st.Total || got.Cycles != st.Cycles || got.IdleCycles != st.IdleCycles {
		t.Fatalf("state round trip mismatch: %+v vs %+v", got, st)
	}
	// Words 0x1 .. 0x1f switch wires 1-4 once each.
	for i := range st.Toggles {
		want := uint64(0)
		if i >= 1 && i <= 4 {
			want = 1
		}
		if st.Toggles[i] != want || got.Toggles[i] != want {
			t.Fatalf("wire %d toggles: %d before the round trip, %d after, want %d", i, st.Toggles[i], got.Toggles[i], want)
		}
	}
	if err := b.SetBusState(0, AccumulatorState{Lines: make([]LineEnergy, width+1)}); err == nil {
		t.Fatal("SetBusState accepted wrong line count")
	}

	a.ResetAll()
	if a.Cycles() != 0 || a.BusLines(0, make([]LineEnergy, width)) != (LineEnergy{}) {
		t.Fatal("ResetAll left window state")
	}
	if st := a.BusState(0); !st.First {
		t.Fatal("ResetAll kept held word")
	}
}

// TestMultiAccumulatorValidation covers constructor error paths.
func TestMultiAccumulatorValidation(t *testing.T) {
	m := testModel(t, 4, itrs.N130)
	if _, err := NewMultiAccumulator(nil, 2); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewMultiAccumulator(m, 0); err == nil {
		t.Fatal("zero buses accepted")
	}
	a, err := NewMultiAccumulator(m, 2)
	if err != nil {
		t.Fatalf("NewMultiAccumulator: %v", err)
	}
	if err := a.EnableMemo(99); err == nil {
		t.Fatal("oversized memo accepted")
	}
	if a.Buses() != 2 || a.Width() != 4 {
		t.Fatalf("accessors: buses=%d width=%d, want 2/4", a.Buses(), a.Width())
	}
	if a.Memo() != nil {
		t.Fatal("memo present before a successful EnableMemo")
	}
	if err := a.EnableMemo(0); err != nil {
		t.Fatalf("EnableMemo(0): %v", err)
	}
	if a.Memo() == nil || a.Memo().Stats().Capacity != 1<<DefaultMemoSizeLog2 {
		t.Fatal("default-sized memo absent after EnableMemo(0)")
	}
}
