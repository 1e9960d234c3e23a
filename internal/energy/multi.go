// Multi-bus accumulation. A MultiAccumulator carries K buses over one
// shared Model in struct-of-arrays form: one [K]-slab of held words, one
// [K*W]-slab of window line energies, and — the hot-path point — one
// shared transition memo probed once per (word, bus) with the per-line
// scatter deferred: a word only increments a uint16 count for the
// (memo slot, bus) pair, and Drain folds each touched slot into the
// window once per sampling interval as count x entry energies.
// Per-interval and cumulative energies are therefore mathematically
// identical to K scalar accumulators (which count pair patterns exactly,
// see counts.go) but are float sums — agreement is to rounding (~1e-12
// relative), not bit exact. Bit-exactness for K == 1 is provided one
// level up (core.MultiSim delegates K == 1 to the scalar pipeline).
package energy

import (
	"fmt"
	"math/bits"
)

// overflowAt forces a per-slot drain just before a uint16 transition
// count would wrap (see MultiAccumulator.StepBus).
const overflowAt = 0xfffe

// addScaled accumulates f repetitions of o into le with one multiply per
// component — the drain kernel that replaces count repetitions of add.
func (le *LineEnergy) addScaled(o LineEnergy, f float64) {
	le.Self += f * o.Self
	le.CoupAdj += f * o.CoupAdj
	le.CoupNonAdj += f * o.CoupNonAdj
}

// MultiAccumulator accumulates transition energies for K buses sharing
// one width-W Model. The buses advance in lockstep (AddCycles/IdleN move
// one shared clock); per-bus words flow through StepBus. It is not safe
// for concurrent use.
type MultiAccumulator struct {
	model *Model
	buses int

	prev  []uint64 // [K] held physical words
	first []bool   // [K] no word transmitted yet

	cycles, idleCycles uint64

	lines []LineEnergy // [K*W] window per-line energies, bus-major
	total []LineEnergy // [K] window bus-wide energies
	step  []LineEnergy // [W] scratch for the direct (no-memo) path

	memo *Memo
	// Aggregation state over the memo table: counts[k*tableSize+slot]
	// pending transitions of bus k through slot (bus-major, so one bus's
	// StepBus pass touches a contiguous tableSize*2-byte window — 32 KiB
	// at the default table size, L1-resident — instead of striding across
	// the whole slab), touched the slots with any pending count (insertion
	// order, for a deterministic drain), marked the membership bitmap
	// behind touched. uint16 counts halve the slab; a counter about to
	// overflow forces an early drain of its slot (see StepBus), so counts
	// are exact at any interval length.
	counts  []uint16
	touched []int32
	marked  []bool
	onEvict func(int)
}

// NewMultiAccumulator builds a K-bus accumulator over the model, without
// memoization (every transition runs the direct kernel). Callers on the
// batch hot path should EnableMemo.
func NewMultiAccumulator(m *Model, buses int) (*MultiAccumulator, error) {
	if m == nil {
		return nil, fmt.Errorf("energy: NewMultiAccumulator over nil model")
	}
	if buses < 1 {
		return nil, fmt.Errorf("energy: multi-accumulator buses %d < 1", buses)
	}
	a := &MultiAccumulator{
		model: m,
		buses: buses,
		prev:  make([]uint64, buses),
		first: make([]bool, buses),
		lines: make([]LineEnergy, buses*m.n),
		total: make([]LineEnergy, buses),
		step:  make([]LineEnergy, m.n),
	}
	for k := range a.first {
		a.first[k] = true
	}
	a.onEvict = a.drainSlot
	return a, nil
}

// EnableMemo attaches a shared transition memo of 2^sizeLog2 entries
// (0 selects DefaultMemoSizeLog2) plus the per-(slot, bus) count slabs.
func (a *MultiAccumulator) EnableMemo(sizeLog2 int) error {
	m, err := NewMemo(a.model, sizeLog2)
	if err != nil {
		return err
	}
	a.memo = m
	a.counts = make([]uint16, len(m.table)*a.buses)
	a.marked = make([]bool, len(m.table))
	a.touched = a.touched[:0]
	return nil
}

// Memo returns the attached transition memo, or nil.
func (a *MultiAccumulator) Memo() *Memo { return a.memo }

// Buses returns K.
func (a *MultiAccumulator) Buses() int { return a.buses }

// Width returns the per-bus line count W.
func (a *MultiAccumulator) Width() int { return a.model.n }

// StepBus transmits words on bus k, one per cycle. It does not advance
// the shared clock: callers step every bus the same number of words per
// round and account the cycles once via AddCycles (the core multi-bus
// stepper does exactly that per chunk).
//
//nanolint:hotpath per-chunk kernel under MultiSim.StepBatch; steady state allocates nothing
func (a *MultiAccumulator) StepBus(k int, words []uint64) {
	if len(words) == 0 {
		return
	}
	m := mask(a.model.n)
	i := 0
	if a.first[k] {
		a.first[k] = false
		a.prev[k] = words[0] & m
		i = 1
	}
	prev := a.prev[k]
	if a.memo != nil {
		memo := a.memo
		keys := memo.keys
		hmask := memo.mask
		counts := a.counts[k*len(keys) : (k+1)*len(keys)]
		// Popcount-indexed probe cache: an incrementing address stream
		// cycles its switching mask through carry chains (0b100, 0b1100,
		// 0b100, 0b11100, ...) whose popcounts 1, 2, 3, ... are distinct, so
		// a tiny cache indexed by popcount(diff) holds the whole cycle where
		// a last-transition shortcut only catches immediate repeats. A hit
		// skips the hash and both random table probes. Entries are validated
		// against the full (diff, rising) key; a zero scDiff never matches
		// because no-op transitions are filtered before the shortcut. Only
		// installSlot moves table entries, so the miss branch clears any
		// shortcut entry whose cached slot it just reused — without that, a
		// hit on the stale key would count transitions against the evicting
		// key's energies. The marked/touched bookkeeping below is shared
		// with the probe path, so a shortcut slot is already tracked.
		var scDiff, scRising [8]uint64
		var scSlot [8]int32
		for ; i < len(words); i++ {
			word := words[i] & m
			if word == prev {
				continue
			}
			diff := prev ^ word
			rising := word & diff
			prev = word
			sc := bits.OnesCount64(diff) & 7
			if scDiff[sc] == diff && scRising[sc] == rising && counts[scSlot[sc]] < overflowAt {
				memo.hits++
				counts[scSlot[sc]]++
				continue
			}
			// Inline two-way probe (the hit path of Memo.lookupSlot); only
			// misses leave the loop body.
			h := memoHash(diff, rising)
			slot := int(h & hmask)
			if kk := keys[slot]; kk.diff == diff && kk.rising == rising {
				memo.hits++
			} else if slot = int((h >> 32) & hmask); keys[slot].diff == diff && keys[slot].rising == rising {
				memo.hits++
			} else {
				slot = memo.installSlot(diff, rising, h, a.onEvict)
				for j := range scSlot {
					if int(scSlot[j]) == slot {
						scDiff[j] = 0
					}
				}
			}
			scDiff[sc], scRising[sc], scSlot[sc] = diff, rising, int32(slot)
			c := counts[slot]
			if c >= overflowAt {
				// Saturating would lose transitions; drain the slot early
				// (unmarks it) and restart its count.
				a.drainSlot(slot)
				c = 0
			}
			counts[slot] = c + 1
			if c == 0 && !a.marked[slot] {
				a.marked[slot] = true
				a.touched = append(a.touched, int32(slot))
			}
		}
		a.prev[k] = prev
		return
	}
	lines := a.lines[k*a.model.n : (k+1)*a.model.n]
	for ; i < len(words); i++ {
		word := words[i] & m
		if word == prev {
			continue
		}
		tot := a.model.transition(prev, word, a.step)
		for j := range a.step {
			lines[j].add(a.step[j])
		}
		a.total[k].add(tot)
		prev = word
	}
	a.prev[k] = prev
}

// AddCycles advances the shared clock by n cycles (one call per lockstep
// batch round, after every bus stepped its n words).
func (a *MultiAccumulator) AddCycles(n uint64) { a.cycles += n }

// IdleN advances n idle cycles on every bus: the buses hold their values,
// only the counters move.
func (a *MultiAccumulator) IdleN(n uint64) {
	a.cycles += n
	a.idleCycles += n
}

// drainSlot folds one memo slot's pending counts into the window: for
// each bus with pending transitions through the slot, the entry's sparse
// per-line energies scatter once, scaled by the count.
func (a *MultiAccumulator) drainSlot(slot int) {
	e := &a.memo.table[slot]
	w := a.model.n
	size := len(a.memo.table)
	for k := 0; k < a.buses; k++ {
		c := a.counts[k*size+slot]
		if c == 0 {
			continue
		}
		a.counts[k*size+slot] = 0
		f := float64(c)
		lines := a.lines[k*w : (k+1)*w]
		idx := 0
		for d := e.diff; d != 0; d &= d - 1 {
			lines[bits.TrailingZeros64(d)].addScaled(e.lines[idx], f)
			idx++
		}
		a.total[k].addScaled(e.total, f)
	}
	a.marked[slot] = false
}

// Drain folds every pending (slot, bus) count into the window, in slot
// touch order — deterministic for a given word stream. Flush paths call
// it before reading BusLines/BusTotal; it is idempotent until the next
// StepBus.
//
// The loop nest is bus-outer, slot-inner: one bus's counts window is a
// contiguous tableSize*2-byte slab (L1/L2-resident) where the slot-outer
// order of drainSlot takes a cache miss per (slot, bus) pair — the count
// columns sit a full table apart. Each bus applies the touched slots in
// the same order drainSlot would have, so the per-bus float association
// (and therefore every energy, bit for bit) is unchanged.
func (a *MultiAccumulator) Drain() {
	if len(a.touched) == 0 {
		return
	}
	size := len(a.memo.table)
	w := a.model.n
	for k := 0; k < a.buses; k++ {
		counts := a.counts[k*size : (k+1)*size]
		lines := a.lines[k*w : (k+1)*w]
		total := &a.total[k]
		for _, s := range a.touched {
			c := counts[s]
			if c == 0 {
				// Covers both untouched (this bus never hit the slot) and
				// already-drained slots (an eviction or overflow drain
				// zeroed every bus's count and unmarked the slot).
				continue
			}
			counts[s] = 0
			f := float64(c)
			e := &a.memo.table[s]
			idx := 0
			for d := e.diff; d != 0; d &= d - 1 {
				lines[bits.TrailingZeros64(d)].addScaled(e.lines[idx], f)
				idx++
			}
			total.addScaled(e.total, f)
		}
	}
	for _, s := range a.touched {
		a.marked[s] = false
	}
	a.touched = a.touched[:0]
}

// BusLines copies bus k's window per-line energies into dst (length W).
// Call Drain first; pending counts are not included.
func (a *MultiAccumulator) BusLines(k int, dst []LineEnergy) {
	copy(dst, a.lines[k*a.model.n:(k+1)*a.model.n])
}

// BusTotal returns bus k's window bus-wide energy. Call Drain first.
func (a *MultiAccumulator) BusTotal(k int) LineEnergy { return a.total[k] }

// Cycles returns the shared window cycle count.
func (a *MultiAccumulator) Cycles() uint64 { return a.cycles }

// IdleCycles returns the shared window idle-cycle count.
func (a *MultiAccumulator) IdleCycles() uint64 { return a.idleCycles }

// Reset clears the window (energies and counters) for the next sampling
// interval, keeping the held words, the memo, and any pending counts —
// callers Drain before Reset, exactly as the scalar flush drains Lines
// before Reset.
func (a *MultiAccumulator) Reset() {
	a.cycles = 0
	a.idleCycles = 0
	for i := range a.lines {
		a.lines[i] = LineEnergy{}
	}
	for i := range a.total {
		a.total[i] = LineEnergy{}
	}
}

// ResetAll additionally forgets the held words (every bus transmits a
// "first" word next), drops pending counts, and keeps the warm memo.
func (a *MultiAccumulator) ResetAll() {
	a.Reset()
	for k := range a.prev {
		a.prev[k] = 0
		a.first[k] = true
	}
	size := 0
	if a.memo != nil {
		size = len(a.memo.table)
	}
	for _, s := range a.touched {
		if a.marked[s] {
			a.marked[s] = false
			for k := 0; k < a.buses; k++ {
				a.counts[k*size+int(s)] = 0
			}
		}
	}
	a.touched = a.touched[:0]
}

// BusState returns bus k's serializable state in the scalar
// AccumulatorState form (shared cycle counters replicated per bus). Call
// Drain first so pending counts are folded into the window.
func (a *MultiAccumulator) BusState(k int) AccumulatorState {
	w := a.model.n
	lines := make([]LineEnergy, w)
	copy(lines, a.lines[k*w:(k+1)*w])
	return AccumulatorState{
		Prev:       a.prev[k],
		First:      a.first[k],
		Cycles:     a.cycles,
		IdleCycles: a.idleCycles,
		Total:      a.total[k],
		Lines:      lines,
	}
}

// SetBusState overwrites bus k's state from a snapshot. The shared cycle
// counters take the snapshot's values (every bus snapshot carries the
// same lockstep counters).
func (a *MultiAccumulator) SetBusState(k int, st AccumulatorState) error {
	w := a.model.n
	if len(st.Lines) != w {
		return fmt.Errorf("energy: state has %d lines, accumulator has %d", len(st.Lines), w)
	}
	a.prev[k] = st.Prev & mask(w)
	a.first[k] = st.First
	a.cycles = st.Cycles
	a.idleCycles = st.IdleCycles
	a.total[k] = st.Total
	copy(a.lines[k*w:(k+1)*w], st.Lines)
	return nil
}
