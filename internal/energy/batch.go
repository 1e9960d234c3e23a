// Batch stepping. StepBatch is the accumulator's one stepping loop
// (Step is a batch of one word): it hoists the width mask and the
// prev-word store out of the loop and routes each transition to the
// counts (counts.go). Counts are integers, so the window is the same
// whatever the batching. IdleN collapses runs of idle cycles into two
// counter additions.
package energy

import "math/bits"

// StepBatch transmits every word in words, one per cycle, exactly like
// calling Step(word) for each: same state updates and the same counts. It
// allocates nothing.
//
//nanolint:hotpath per-chunk kernel under Simulator.StepBatch; allocates nothing
func (a *Accumulator) StepBatch(words []uint64) {
	a.cycles += uint64(len(words))
	if len(words) == 0 {
		return
	}
	m := mask(a.model.n)
	i := 0
	if a.first {
		a.first = false
		a.prev = words[0] & m
		i = 1
	}
	prev := a.prev
	c := &a.counts
	for ; i < len(words); i++ {
		word := words[i] & m
		diff := prev ^ word
		switch {
		case diff == 0:
			continue
		case diff&(diff-1) == 0:
			// One switching line, the commonest sequential-address
			// step: a toggle and no pair, counted without a call.
			c.toggles[bits.TrailingZeros64(diff)&63]++
		case bits.OnesCount64(diff) <= narrowMax:
			c.addNarrow(diff, word&diff)
		default:
			c.addWide(diff, word&diff)
		}
		prev = word
	}
	a.prev = prev
}

// IdleN advances n cycles with the bus holding its value — equivalent to n
// Idle calls (idle cycles dissipate nothing, so only the counters move).
func (a *Accumulator) IdleN(n uint64) {
	a.cycles += n
	a.idleCycles += n
}
