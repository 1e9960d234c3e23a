package encoding

// Crosstalk classification: the deep-submicron coupling literature the
// paper builds on (Sotiriadis [16, 17], Kim's CBI [9]) grades each wire's
// transition by how much coupling capacitance it effectively switches,
// from class 0C (both neighbours move with the wire: no coupling switched)
// to 4C (both neighbours toggle against it: four units of Miller-doubled
// coupling). The class equals |di-dl| + |di-dr| where d ∈ {-1,0,+1} are
// the normalised transition directions of the wire and its neighbours —
// exactly the per-pair (vi-vj)^2 cost the OEBI and CBI mode decisions
// minimise, collapsed to units of C.
//
// The classifier powers trace analyses (how toggle-heavy is a workload's
// address stream?) and explains encoder behaviour: CBI exists to convert
// 3C/4C patterns into cheaper classes.

// CrosstalkClass grades wire i's transition in prev -> cur on a bus of the
// given width. Edge wires have one neighbour, so their maximum class is
// 2C. A quiet wire between switching neighbours still switches coupling
// charge; its class counts that (|0-dl| + |0-dr|).
func CrosstalkClass(prev, cur uint64, i, width int) int {
	di := dir(prev, cur, i)
	class := 0
	if i > 0 {
		d := di - dir(prev, cur, i-1)
		if d < 0 {
			d = -d
		}
		class += d
	}
	if i < width-1 {
		d := di - dir(prev, cur, i+1)
		if d < 0 {
			d = -d
		}
		class += d
	}
	return class
}

// CrosstalkHistogram accumulates the class distribution of a word stream.
type CrosstalkHistogram struct {
	// Counts[c] is the number of (wire, transition) observations in
	// class c (0..4).
	Counts [5]uint64
	// Width is the bus width observed.
	Width int

	prev    uint64
	started bool
}

// NewCrosstalkHistogram returns a histogram for a width-wire bus.
func NewCrosstalkHistogram(width int) *CrosstalkHistogram {
	if width < 1 {
		width = 1
	}
	if width > 64 {
		width = 64
	}
	return &CrosstalkHistogram{Width: width}
}

// Observe feeds the next bus word.
func (h *CrosstalkHistogram) Observe(word uint64) {
	if !h.started {
		h.started = true
		h.prev = word
		return
	}
	if word != h.prev {
		for i := 0; i < h.Width; i++ {
			c := CrosstalkClass(h.prev, word, i, h.Width)
			h.Counts[c]++
		}
	} else {
		h.Counts[0] += uint64(h.Width)
	}
	h.prev = word
}

// Total returns the number of graded observations.
func (h *CrosstalkHistogram) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Fraction returns class c's share of all observations.
func (h *CrosstalkHistogram) Fraction(c int) float64 {
	if c < 0 || c > 4 {
		return 0
	}
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Counts[c]) / float64(t)
}

// MeanClass returns the average coupling class — a single toggle-heaviness
// figure for a stream (0: perfectly quiet/shielded, 4: worst-case
// anti-phase toggling).
func (h *CrosstalkHistogram) MeanClass() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	sum := 0.0
	for c, n := range h.Counts {
		sum += float64(c) * float64(n)
	}
	return sum / float64(t)
}
