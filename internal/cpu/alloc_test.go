package cpu_test

import (
	"testing"

	"nanobus/internal/workload"
)

// TestStepAllocs pins trace capture's zero-allocation steady state: once
// eon is past its warm-up, every page it fetches from has its decode
// array, so a Step allocates nothing.
func TestStepAllocs(t *testing.T) {
	eon, _ := workload.ByName("eon")
	src, err := eon.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < eon.WarmupCycles; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("eon ended in warm-up: %v", src.Err())
		}
	}
	var stepErr error
	allocs := testing.AllocsPerRun(10000, func() {
		if _, err := src.CPU.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Errorf("Step allocates %.2f times per call, want 0", allocs)
	}
}
