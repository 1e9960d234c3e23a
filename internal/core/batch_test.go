package core

import (
	"context"
	"errors"
	"testing"

	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/trace"
)

// batchWords is an address-like data-word stream.
func batchWords(n int) []uint32 {
	words := make([]uint32, n)
	w, rng := uint32(0x4000_1000), uint32(7)
	for i := range words {
		rng = rng*1664525 + 1013904223
		switch rng % 8 {
		case 0:
			w = rng
		case 1: // hold
		default:
			w += 4
		}
		words[i] = w
	}
	return words
}

// TestPlayTapeMatchesRunSingle requires a compiled tape replay to be
// bit-identical to the per-cycle run loop over the same source.
func TestPlayTapeMatchesRunSingle(t *testing.T) {
	const cycles = 50_000
	for _, kind := range []string{"ia", "da"} {
		mk := func() *Simulator {
			sim, err := New(Config{Node: itrs.N90, CouplingDepth: -1, IntervalCycles: 4096})
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}
		ref, got := mk(), mk()
		src := trace.NewSynth(trace.DefaultSynthConfig(42))
		n, err := RunSingle(src, ref, kind, cycles)
		if err != nil {
			t.Fatal(err)
		}
		if n != cycles {
			t.Fatalf("ran %d of %d cycles", n, cycles)
		}
		tape, err := CompileTape(trace.NewSynth(trace.DefaultSynthConfig(42)), kind, cycles)
		if err != nil {
			t.Fatal(err)
		}
		if tape.cycles != cycles {
			t.Fatalf("tape has %d cycles, want %d", tape.cycles, cycles)
		}
		if err := got.PlayTape(context.Background(), tape); err != nil {
			t.Fatal(err)
		}
		if err := got.Finish(); err != nil {
			t.Fatal(err)
		}
		if ref.TotalEnergy() != got.TotalEnergy() {
			t.Fatalf("%s: total %+v != %+v", kind, ref.TotalEnergy(), got.TotalEnergy())
		}
		if ref.Cycles() != got.Cycles() {
			t.Fatalf("%s: cycles %d != %d", kind, ref.Cycles(), got.Cycles())
		}
		rs, gs := ref.Samples(), got.Samples()
		if len(rs) != len(gs) {
			t.Fatalf("%s: %d samples != %d", kind, len(rs), len(gs))
		}
		for i := range rs {
			if rs[i].EndCycle != gs[i].EndCycle || rs[i].Energy != gs[i].Energy ||
				rs[i].Self != gs[i].Self || rs[i].CoupAdj != gs[i].CoupAdj ||
				rs[i].CoupNonAdj != gs[i].CoupNonAdj ||
				rs[i].AvgTemp != gs[i].AvgTemp || rs[i].MaxTemp != gs[i].MaxTemp {
				t.Fatalf("%s: sample %d differs: %+v != %+v", kind, i, rs[i], gs[i])
			}
		}
	}
}

// TestPlayTapeStopsAtClosedInterval cancels ctx from the first sample's
// callback: PlayTape must return at that interval's close, with exactly
// one interval driven, and must refuse to start on a cancelled ctx.
func TestPlayTapeStopsAtClosedInterval(t *testing.T) {
	const interval = 1000
	tape, err := CompileTape(trace.NewSynth(trace.DefaultSynthConfig(7)), "da", 5*interval)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sim, err := New(Config{Node: itrs.N90, IntervalCycles: interval, OnSample: func(Sample) { cancel() }})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.PlayTape(ctx, tape); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlayTape = %v, want context.Canceled", err)
	}
	if sim.Cycles() != interval || len(sim.Samples()) != 1 {
		t.Fatalf("stopped after %d cycles and %d samples, want %d and 1", sim.Cycles(), len(sim.Samples()), interval)
	}
	if err := sim.PlayTape(ctx, tape); !errors.Is(err, context.Canceled) || sim.Cycles() != interval {
		t.Fatalf("PlayTape on a cancelled ctx = %v after %d cycles", err, sim.Cycles())
	}
}

// TestCompileTapeErrors pins the tape compiler's validation.
func TestCompileTapeErrors(t *testing.T) {
	if _, err := CompileTape(trace.NewSliceSource(nil), "xa", 10); err == nil {
		t.Fatal("want error for unknown bus kind")
	}
}

// TestPlayTapeAllocs is the alloc regression gate for sweep replay: a
// Fig. 3 job resets its simulator and replays one compiled tape per
// benchmark, so Reset, PlayTape and Finish together must not allocate
// for any of the paper's schemes.
func TestPlayTapeAllocs(t *testing.T) {
	tape, err := CompileTape(trace.NewSynth(trace.DefaultSynthConfig(42)), "da", 50_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, scheme := range encoding.PaperSchemes() {
		enc, err := encoding.New(scheme)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(Config{Node: itrs.N130, Encoder: enc, CouplingDepth: -1, DropSamples: true})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			sim.Reset()
			if err := sim.PlayTape(ctx, tape); err != nil {
				t.Fatal(err)
			}
			if err := sim.Finish(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Reset+PlayTape+Finish allocate %v/op, want 0", scheme, allocs)
		}
	}
}

// TestStepBatchAllocs is the alloc regression gate for the core batch
// pipeline: once the memo is warm, StepBatch and StepIdleBatch must not
// allocate — including the interval flushes and thermal advances inside.
func TestStepBatchAllocs(t *testing.T) {
	words := batchWords(8192)
	sim, err := New(Config{
		Node:           itrs.N130,
		CouplingDepth:  -1,
		IntervalCycles: 1000, // several flushes per measured run
		DropSamples:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sim.StepBatch(ctx, words); err != nil { // warm memo and dt cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sim.StepBatch(ctx, words); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.StepIdleBatch(ctx, 3000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StepBatch+StepIdleBatch allocate %v/op in steady state, want 0", allocs)
	}
}
