// Batch stepping. stepWords is the one stepping loop of every bus, scalar
// or one of a MultiAccumulator's K: it hoists the width mask and the
// prev-word store out of the loop and routes each transition by its
// switching-line count. A narrow one (at most memoMax lines) becomes a
// uint16 count in the transition-key table (memo.go), or with the memo
// off goes straight into the counts; a wider one is parked in the bus's
// mask block (counts.go). Counts are integers, so the window is the same
// whatever the batching, the table size or the drain schedule.
package energy

import "math/bits"

// StepBatch transmits every word in words, one per cycle: the same state
// updates and counts however the stream is split into batches. It
// allocates nothing.
func (a *Accumulator) StepBatch(words []uint64) {
	a.cycles += uint64(len(words))
	a.stepWords(words)
}

// stepWords transmits words on the bus, one per cycle, leaving the cycle
// counters to the caller.
//
//nanolint:hotpath per-chunk kernel under Simulator.StepBatch and MultiSim.StepBatch; allocates nothing
func (a *Accumulator) stepWords(words []uint64) {
	m := mask(a.model.n)
	i := 0
	if a.first && len(words) > 0 {
		a.first = false
		a.prev = words[0] & m
		i = 1
	}
	prev := a.prev
	memo := a.memo
	var (
		keys   []memoKey
		counts []uint16
		hmask  uint64
	)
	if memo != nil {
		keys, hmask = memo.keys, memo.mask
		counts = memo.counts[a.bus*len(keys) : (a.bus+1)*len(keys)]
	}
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
	// path, so a shortcut slot is already tracked. Only narrow keys are
	// cached (none with the memo off), so the route checks run after the
	// shortcut, off its path: a wide transition's popcount may alias an
	// entry (pc & 7), but its key never equals a narrow one.
	var scDiff, scRising [8]uint64
	var scSlot [8]int32
	// Most words of a held bus (soc_lockstep's) take only the hold test,
	// so this loop's speed there follows its code layout: it ran ~10%
	// slower where the hold test straddled a 64-byte line (EXPERIMENTS.md,
	// "One stepping loop").
	for ; i < len(words); i++ {
		word := words[i] & m
		if word == prev {
			continue
		}
		diff := prev ^ word
		rising := word & diff
		prev = word
		pc := bits.OnesCount64(diff)
		sc := pc & 7
		if scDiff[sc] == diff && scRising[sc] == rising && counts[scSlot[sc]] < overflowAt {
			memo.hits++
			counts[scSlot[sc]]++
			continue
		}
		if pc > memoMax {
			a.counts.addWide(diff, rising)
			continue
		}
		if counts == nil {
			a.counts.addCount(diff, rising, 1)
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
			slot = memo.installSlot(diff, rising, h)
			for j := range scSlot {
				if int(scSlot[j]) == slot {
					scDiff[j] = 0
				}
			}
		}
		scDiff[sc], scRising[sc], scSlot[sc] = diff, rising, int32(slot)
		n := counts[slot]
		if n >= overflowAt {
			// Saturating would lose transitions; drain the slot early
			// (unmarks it) and restart its count.
			memo.drainSlot(slot)
			n = 0
		}
		counts[slot] = n + 1
		if n == 0 && !memo.marked[slot] {
			memo.marked[slot] = true
			memo.touched = append(memo.touched, int32(slot))
		}
	}
	a.prev = prev
}
