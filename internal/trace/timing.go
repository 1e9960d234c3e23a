package trace

import (
	"fmt"

	"nanobus/internal/cache"
)

// Latencies are the stall cycles a miss adds at each level. The paper's
// SHADE traces are functional (one cycle per committed instruction); this
// adapter is the timing-aware extension: misses insert stall cycles during
// which both address buses hold their values, making the bus traffic
// burstier and the idle windows realistic.
type Latencies struct {
	// L2Hit is the added stall for an L1 miss that hits in L2.
	L2Hit uint32
	// Memory is the added stall for an L2 miss.
	Memory uint32
}

// DefaultLatencies returns a conventional 2000s-era hierarchy timing.
func DefaultLatencies() Latencies { return Latencies{L2Hit: 10, Memory: 100} }

// TimingAdapter wraps a functional source with the paper's cache hierarchy
// and stretches time: each underlying cycle is followed by stall (idle)
// cycles determined by its cache behaviour.
type TimingAdapter struct {
	src   Source
	h     *cache.Hierarchy
	lat   Latencies
	stall uint32
	// l2Miss tracks whether the current access chain reached memory.
	l2Miss bool
}

// NewTimingAdapter builds the adapter with a fresh paper-configured
// hierarchy.
func NewTimingAdapter(src Source, lat Latencies) (*TimingAdapter, error) {
	if src == nil {
		return nil, fmt.Errorf("trace: nil source")
	}
	h, err := cache.NewPaperHierarchy()
	if err != nil {
		return nil, err
	}
	ta := &TimingAdapter{src: src, h: h, lat: lat}
	ta.h.L2.MissHook = func(blockAddr uint32, write bool) {
		if !write {
			ta.l2Miss = true
		}
	}
	return ta, nil
}

// Next implements Source: stall cycles surface as full-idle cycles.
func (ta *TimingAdapter) Next() (Cycle, bool) {
	if ta.stall > 0 {
		ta.stall--
		return Cycle{}, true
	}
	c, ok := ta.src.Next()
	if !ok {
		return Cycle{}, false
	}
	var addStall uint32
	if c.IValid {
		ta.l2Miss = false
		if !ta.h.IL1.Read(c.IAddr) {
			addStall += ta.missCost()
		}
	}
	if c.DValid {
		ta.l2Miss = false
		hit := false
		if c.DStore {
			hit = ta.h.DL1.Write(c.DAddr)
		} else {
			hit = ta.h.DL1.Read(c.DAddr)
		}
		if !hit {
			addStall += ta.missCost()
		}
	}
	ta.stall = addStall
	return c, true
}

// missCost prices the L1 miss that just happened: memory latency if the
// refill escalated to an L2 miss, otherwise the L2 hit latency.
func (ta *TimingAdapter) missCost() uint32 {
	if ta.l2Miss {
		ta.l2Miss = false
		return ta.lat.Memory
	}
	return ta.lat.L2Hit
}
