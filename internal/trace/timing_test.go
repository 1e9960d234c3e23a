package trace

import (
	"testing"
)

// fetchSeq yields sequential fetches over a range larger than the L1.
func fetchSeq(n int, stride uint32) []Cycle {
	out := make([]Cycle, n)
	for i := range out {
		out[i] = Cycle{IValid: true, IAddr: uint32(i) * stride}
	}
	return out
}

func TestTimingAdapterInsertsStalls(t *testing.T) {
	// A fetch stream striding one L1 block per access misses every time
	// in the first pass: every access costs the memory latency (cold L2).
	base := fetchSeq(100, 32)
	ta, err := NewTimingAdapter(NewSliceSource(base), Latencies{L2Hit: 5, Memory: 50})
	if err != nil {
		t.Fatal(err)
	}
	var total, idle int
	for {
		c, ok := ta.Next()
		if !ok {
			break
		}
		total++
		if !c.IValid && !c.DValid {
			idle++
		}
	}
	if idle == 0 {
		t.Fatal("no stall cycles inserted")
	}
	if total != 100+idle {
		t.Errorf("total %d != 100 real + %d stalls", total, idle)
	}
	// Cold pass: 100 fetches, each a new 32B block -> 100 L1 misses; L2
	// has 64B blocks so every second fetch also misses L2. Expect
	// 50*50 + 50*5 = 2750 stalls.
	if idle != 2750 {
		t.Errorf("stalls = %d, want 2750", idle)
	}
	if f := float64(idle) / float64(total); f < 0.9 {
		t.Errorf("stall fraction = %.3f, want ~0.96 for a cold striding stream", f)
	}
}

func TestTimingAdapterHitsAreFree(t *testing.T) {
	// Re-fetching one cached block adds no stalls after the first miss.
	cycles := make([]Cycle, 50)
	for i := range cycles {
		cycles[i] = Cycle{IValid: true, IAddr: 0x1000}
	}
	ta, err := NewTimingAdapter(NewSliceSource(cycles), DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	var total, idle int
	for {
		c, ok := ta.Next()
		if !ok {
			break
		}
		total++
		if !c.IValid {
			idle++
		}
	}
	// One cold miss: memory latency (L2 also missed). Every further miss
	// would add at least the L2-hit latency, so this is the one IL1 miss.
	want := int(DefaultLatencies().Memory)
	if idle != want {
		t.Errorf("stalls = %d, want %d (single cold miss)", idle, want)
	}
	if total != 50+want {
		t.Errorf("total = %d", total)
	}
}

func TestTimingAdapterDataSide(t *testing.T) {
	cycles := []Cycle{
		{IValid: true, IAddr: 0x1000, DValid: true, DAddr: 0x2000_0000},
		{IValid: true, IAddr: 0x1004, DValid: true, DAddr: 0x2000_0000},
	}
	ta, err := NewTimingAdapter(NewSliceSource(cycles), Latencies{L2Hit: 3, Memory: 30})
	if err != nil {
		t.Fatal(err)
	}
	var idle int
	for {
		c, ok := ta.Next()
		if !ok {
			break
		}
		if !c.IValid && !c.DValid {
			idle++
		}
	}
	// First cycle: I miss (memory: 30) + D miss (memory: 30) = 60.
	// Second cycle: both hit.
	if idle != 60 {
		t.Errorf("stalls = %d, want 60", idle)
	}
}

func TestTimingAdapterNilSource(t *testing.T) {
	if _, err := NewTimingAdapter(nil, DefaultLatencies()); err == nil {
		t.Error("nil source accepted")
	}
}

func TestTimingAdapterEmptyStats(t *testing.T) {
	ta, err := NewTimingAdapter(NewSliceSource(nil), DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ta.Next(); ok {
		t.Error("empty source yielded a cycle")
	}
}
