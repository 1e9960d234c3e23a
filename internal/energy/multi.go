// Multi-bus accumulation. A MultiAccumulator carries K buses over one
// shared Model. Each bus's window is a scalar Accumulator: its held word
// and its exact pair-pattern counts (counts.go). The hot-path point is
// one transition-key memo (memo.go) shared by the buses and probed once
// per (word, bus): a word only increments a uint16 count for its
// (memo slot, bus) pair. A slot drains when its key is evicted, when its
// count would overflow, and at Drain, by adding count copies of the key
// to the bus's counts. Counts are integers, so every bus's window — and
// every energy read from it — is bit-identical to a scalar Accumulator
// fed the same words, whatever the eviction, drain or snapshot schedule.
package energy

import (
	"fmt"
	"math/bits"
)

// overflowAt forces a per-slot drain just before a uint16 transition
// count would wrap (see MultiAccumulator.StepBus).
const overflowAt = 0xfffe

// MultiAccumulator accumulates transition counts for K buses sharing one
// width-W Model. The buses advance in lockstep (AddCycles/IdleN move one
// shared clock); per-bus words flow through StepBus. It is not safe for
// concurrent use.
type MultiAccumulator struct {
	model *Model
	// bus[k] is bus k's window. The shared clock below is the window's
	// cycle count; the buses' own cycle counters are not read.
	bus []*Accumulator

	cycles, idleCycles uint64

	memo *Memo
	// Aggregation state over the memo table: counts[k*tableSize+slot]
	// pending transitions of bus k through slot (bus-major, so one bus's
	// StepBus pass touches a contiguous tableSize*2-byte window — 32 KiB
	// at the default table size, L1-resident — instead of striding across
	// the whole slab), touched the slots with any pending count (insertion
	// order), marked the membership bitmap behind touched. uint16 counts
	// halve the slab; a counter about to overflow forces an early drain of
	// its slot (see StepBus), so counts are exact at any interval length.
	counts  []uint16
	touched []int32
	marked  []bool
	onEvict func(int)
}

// NewMultiAccumulator builds a K-bus accumulator over the model, without
// a memo (every word takes the scalar count route). Callers on the batch
// hot path should EnableMemo.
func NewMultiAccumulator(m *Model, buses int) (*MultiAccumulator, error) {
	if m == nil {
		return nil, fmt.Errorf("energy: NewMultiAccumulator over nil model")
	}
	if buses < 1 {
		return nil, fmt.Errorf("energy: multi-accumulator buses %d < 1", buses)
	}
	a := &MultiAccumulator{model: m, bus: make([]*Accumulator, buses)}
	for k := range a.bus {
		a.bus[k] = NewAccumulator(m)
	}
	a.onEvict = a.drainSlot
	return a, nil
}

// EnableMemo attaches a shared transition-key memo of 2^sizeLog2 entries
// (0 selects DefaultMemoSizeLog2) plus the per-(slot, bus) count slabs.
func (a *MultiAccumulator) EnableMemo(sizeLog2 int) error {
	m, err := newMemo(sizeLog2)
	if err != nil {
		return err
	}
	a.memo = m
	a.counts = make([]uint16, len(m.keys)*len(a.bus))
	a.marked = make([]bool, len(m.keys))
	a.touched = a.touched[:0]
	return nil
}

// Memo returns the attached transition memo, or nil.
func (a *MultiAccumulator) Memo() *Memo { return a.memo }

// Buses returns K.
func (a *MultiAccumulator) Buses() int { return len(a.bus) }

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
	b := a.bus[k]
	if a.memo == nil {
		b.StepBatch(words)
		return
	}
	m := mask(a.model.n)
	i := 0
	if b.first {
		b.first = false
		b.prev = words[0] & m
		i = 1
	}
	prev := b.prev
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
	// key. The marked/touched bookkeeping below is shared with the probe
	// path, so a shortcut slot is already tracked.
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
		// Inline two-way probe; only misses leave the loop body.
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
	b.prev = prev
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

// drainSlot adds one memo slot's pending counts to the windows: for each
// bus with pending transitions through the slot, count copies of the
// slot's key.
func (a *MultiAccumulator) drainSlot(slot int) {
	key := a.memo.keys[slot]
	size := len(a.memo.keys)
	for k, b := range a.bus {
		if c := a.counts[k*size+slot]; c != 0 {
			a.counts[k*size+slot] = 0
			b.counts.addCount(key.diff, key.rising, uint64(c))
		}
	}
	a.marked[slot] = false
}

// Drain adds every pending (slot, bus) count to the windows. Flush paths
// call it before reading BusLines or BusState; it is idempotent until the
// next StepBus.
//
// The loop nest is bus-outer, slot-inner: one bus's counts window is a
// contiguous tableSize*2-byte slab (L1/L2-resident) where the slot-outer
// order of drainSlot takes a cache miss per (slot, bus) pair — the count
// columns sit a full table apart.
func (a *MultiAccumulator) Drain() {
	if len(a.touched) == 0 {
		return
	}
	keys := a.memo.keys
	size := len(keys)
	for k, b := range a.bus {
		counts := a.counts[k*size : (k+1)*size]
		pc := &b.counts
		for _, s := range a.touched {
			// A zero count covers both untouched (this bus never hit the
			// slot) and already-drained slots (an eviction or overflow
			// drain zeroed every bus's count and unmarked the slot).
			if c := counts[s]; c != 0 {
				counts[s] = 0
				pc.addCount(keys[s].diff, keys[s].rising, uint64(c))
			}
		}
	}
	for _, s := range a.touched {
		a.marked[s] = false
	}
	a.touched = a.touched[:0]
}

// BusLines copies bus k's window per-line energies into dst (length W)
// and returns its bus-wide energy, exactly as Accumulator.Lines does.
// Call Drain first; pending counts are not included.
func (a *MultiAccumulator) BusLines(k int, dst []LineEnergy) LineEnergy {
	return a.bus[k].Lines(dst)
}

// Cycles returns the shared window cycle count.
func (a *MultiAccumulator) Cycles() uint64 { return a.cycles }

// IdleCycles returns the shared window idle-cycle count.
func (a *MultiAccumulator) IdleCycles() uint64 { return a.idleCycles }

// Reset clears the windows (counts and counters) for the next sampling
// interval, keeping the held words, the memo, and any pending counts —
// callers Drain before Reset, exactly as the scalar flush reads Lines
// before Reset.
func (a *MultiAccumulator) Reset() {
	a.cycles = 0
	a.idleCycles = 0
	for _, b := range a.bus {
		b.Reset()
	}
}

// ResetAll additionally forgets the held words (every bus transmits a
// "first" word next), drops pending counts, and keeps the warm memo.
func (a *MultiAccumulator) ResetAll() {
	a.cycles = 0
	a.idleCycles = 0
	for _, b := range a.bus {
		b.ResetAll()
	}
	size := len(a.marked)
	for _, s := range a.touched {
		a.marked[s] = false
		for k := range a.bus {
			a.counts[k*size+int(s)] = 0
		}
	}
	a.touched = a.touched[:0]
}

// BusState returns bus k's serializable state: its Accumulator's, with
// the shared cycle counters. Call Drain first so pending counts are in
// the window.
func (a *MultiAccumulator) BusState(k int) AccumulatorState {
	st := a.bus[k].State()
	st.Cycles, st.IdleCycles = a.cycles, a.idleCycles
	return st
}

// SetBusState overwrites bus k's state from a snapshot. The shared cycle
// counters take the snapshot's values (every bus snapshot carries the
// same lockstep counters).
func (a *MultiAccumulator) SetBusState(k int, st AccumulatorState) error {
	if err := a.bus[k].SetState(st); err != nil {
		return err
	}
	a.cycles, a.idleCycles = st.Cycles, st.IdleCycles
	return nil
}
