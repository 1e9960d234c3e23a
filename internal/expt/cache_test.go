package expt

import (
	"testing"

	"nanobus/internal/itrs"
)

// TestFig3CacheBitIdentical requires cache reuse to be invisible in the
// results: a cold shared-cache call, a warm shared-cache call, and a
// nil-cache call must produce identical cells.
func TestFig3CacheBitIdentical(t *testing.T) {
	opts := Fig3Options{
		Cycles:     30_000,
		Benchmarks: []string{"eon", "swim"},
		Nodes:      []itrs.Node{itrs.N130},
		Schemes:    []string{"BI", "Unencoded"},
		Workers:    2,
	}
	ref, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSweepCache()
	opts.Cache = cache
	for _, phase := range []string{"cold", "warm"} {
		cells, err := Fig3(opts)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if len(cells) != len(ref) {
			t.Fatalf("%s: %d cells, want %d", phase, len(cells), len(ref))
		}
		for i := range ref {
			if cells[i] != ref[i] {
				t.Fatalf("%s cell %d: %+v != %+v", phase, i, cells[i], ref[i])
			}
		}
	}
}

// TestFig4CacheBitIdentical checks the same for the transient study.
func TestFig4CacheBitIdentical(t *testing.T) {
	opts := Fig4Options{
		Cycles:         120_000,
		IntervalCycles: 20_000,
		Benchmarks:     []string{"swim"},
	}
	ref, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = NewSweepCache()
	for _, phase := range []string{"cold", "warm"} {
		series, err := Fig4(opts)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if len(series) != len(ref) {
			t.Fatalf("%s: %d series, want %d", phase, len(series), len(ref))
		}
		for i := range ref {
			if len(series[i].Samples) != len(ref[i].Samples) {
				t.Fatalf("%s series %d: %d samples, want %d", phase, i,
					len(series[i].Samples), len(ref[i].Samples))
			}
			for j := range ref[i].Samples {
				if series[i].Samples[j].Energy != ref[i].Samples[j].Energy ||
					series[i].Samples[j].MaxTemp != ref[i].Samples[j].MaxTemp {
					t.Fatalf("%s series %d sample %d differs", phase, i, j)
				}
			}
			if series[i].Energy != ref[i].Energy || series[i].MaxTemp != ref[i].MaxTemp {
				t.Fatalf("%s series %d summary differs", phase, i)
			}
		}
	}
}

// TestFig3WarmCacheAllocs is the sweep alloc regression gate: with a warm
// cache every simulator and tape is reused, so a whole Fig. 3 sweep
// allocates only scheduling scraps and result slices — orders of
// magnitude below the tens of thousands of allocations the uncached
// sweep paid per call.
func TestFig3WarmCacheAllocs(t *testing.T) {
	opts := Fig3Options{
		Cycles:     20_000,
		Benchmarks: []string{"eon", "swim"},
		Nodes:      []itrs.Node{itrs.N130},
		Workers:    1,
		Cache:      NewSweepCache(),
	}
	if _, err := Fig3(opts); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Fig3(opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Errorf("warm-cache Fig3 sweep allocates %v objects, want <= 500", allocs)
	}
}

// TestFig3WarmCacheAllocsFlatAcrossWorkers pins flat warm allocations: a
// warm parallel sweep must not allocate much more than the serial one,
// whichever pooled simulator each job draws. A pooled simulator must
// carry no state trained on earlier traffic (such as a transition memo)
// that a job drawing it has to rebuild, or warm allocs grow with the
// worker count.
func TestFig3WarmCacheAllocsFlatAcrossWorkers(t *testing.T) {
	measure := func(workers int) float64 {
		opts := Fig3Options{
			Cycles:     20_000,
			Benchmarks: []string{"eon", "swim"},
			Nodes:      []itrs.Node{itrs.N130},
			Workers:    workers,
			Cache:      NewSweepCache(),
		}
		if _, err := Fig3(opts); err != nil { // warm the cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Fig3(opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	serial, parallel4 := measure(1), measure(4)
	// Goroutine spin-up costs a handful of allocations per worker; memo
	// retraining costs thousands. The bound separates the two regimes.
	if parallel4 > 2*serial+300 {
		t.Errorf("warm Fig3 sweep allocates %v objects at 4 workers vs %v serial; want flat", parallel4, serial)
	}
}
