package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"nanobus/internal/itrs"
	"nanobus/internal/trace"
)

func testSim(t *testing.T, interval uint64) *Simulator {
	t.Helper()
	sim, err := New(Config{Node: itrs.N90, CouplingDepth: -1, IntervalCycles: interval})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// testWords returns a deterministic pseudo-address stream.
func testWords(n int) []uint32 {
	words := make([]uint32, n)
	x := uint32(0x1234_5678)
	for i := range words {
		x = x*1664525 + 1013904223
		words[i] = x
	}
	return words
}

// TestStepBatchCancellation checks the one-sampling-interval cancellation
// bound: a context cancelled by the first sample stops the batch before a
// second interval completes.
func TestStepBatchCancellation(t *testing.T) {
	const interval = 256
	sim := testSim(t, interval)
	ctx, cancel := context.WithCancel(context.Background())
	sim.SetOnSample(func(Sample) { cancel() })

	n, err := sim.StepBatch(ctx, testWords(10*interval))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n != interval {
		t.Fatalf("consumed %d words, want exactly one interval (%d)", n, interval)
	}

	// A cancelled context stops the batch before any work.
	n, err = sim.StepBatch(ctx, testWords(10))
	if n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch: n=%d err=%v", n, err)
	}
}

func TestStepIdleBatchCancellation(t *testing.T) {
	const interval = 256
	sim := testSim(t, interval)
	ctx, cancel := context.WithCancel(context.Background())
	sim.SetOnSample(func(Sample) { cancel() })
	n, err := sim.StepIdleBatch(ctx, 10*interval)
	if !errors.Is(err, context.Canceled) || n != interval {
		t.Fatalf("n=%d err=%v, want one interval (%d) and Canceled", n, interval, err)
	}
}

func TestRunContextWrappersMatch(t *testing.T) {
	const cycles = 3000
	mk := func() (trace.Source, *Simulator, *Simulator) {
		return trace.NewSynth(trace.DefaultSynthConfig(7)), testSim(t, 512), testSim(t, 512)
	}

	src1, ia1, da1 := mk()
	r1, err := RunPair(src1, ia1, da1, cycles)
	if err != nil {
		t.Fatal(err)
	}
	src2, ia2, da2 := mk()
	r2, err := RunPairContext(context.Background(), src2, ia2, da2, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatalf("cycles %d != %d", r1.Cycles, r2.Cycles)
	}
	e1, e2 := r1.IA.TotalEnergy().Total(), r2.IA.TotalEnergy().Total()
	if math.Float64bits(e1) != math.Float64bits(e2) {
		t.Fatalf("IA energy %g != %g", e1, e2)
	}
}

func TestRunPairContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := trace.NewSynth(trace.DefaultSynthConfig(1))
	ia, da := testSim(t, 128), testSim(t, 128)
	if _, err := RunPairContext(ctx, src, ia, da, 10_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if ia.Cycles() != 0 {
		t.Fatalf("pre-cancelled run consumed %d cycles", ia.Cycles())
	}
}

func TestRunSingleContextCancelledMidRun(t *testing.T) {
	const interval = 128
	sim := testSim(t, interval)
	ctx, cancel := context.WithCancel(context.Background())
	sim.SetOnSample(func(Sample) { cancel() })
	src := trace.NewSynth(trace.DefaultSynthConfig(3))
	n, err := RunSingleContext(ctx, src, sim, "ia", 100*interval)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	// The loop may finish the interval in flight, then must stop at the
	// next interval boundary check.
	if n > 2*interval {
		t.Fatalf("consumed %d cycles after cancellation, want <= %d", n, 2*interval)
	}
}

func TestRunSingleContextUnknownKind(t *testing.T) {
	sim := testSim(t, 128)
	src := trace.NewSynth(trace.DefaultSynthConfig(3))
	if _, err := RunSingleContext(context.Background(), src, sim, "xx", 10); err == nil {
		t.Fatal("want error for unknown kind")
	}
}
