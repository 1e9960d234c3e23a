// Batch encoding. The simulator's batch pipeline encodes whole word
// slices at a time; going through Encoder.Encode would cost one interface
// dispatch per word, which on the batch hot path is comparable to the
// energy kernel itself. BatchEncoder is the optional batch fast path:
// every built-in scheme implements it, stateless schemes as a tight loop
// and stateful ones as a direct (devirtualized) method-call loop. Batch
// encoding is defined to be exactly Encode applied in order, so results
// are bit-identical either way.
package encoding

import "math/bits"

// BatchEncoder is implemented by encoders that can encode a whole slice
// per call. EncodeBatch must behave exactly like calling Encode(src[i])
// for i in order, storing each result in dst[i]; dst and src must have
// equal length.
type BatchEncoder interface {
	EncodeBatch(dst []uint64, src []uint32)
}

// EncodeWords encodes src into dst (equal lengths) through the encoder's
// batch fast path when it has one, falling back to per-word Encode calls.
func EncodeWords(e Encoder, dst []uint64, src []uint32) {
	if be, ok := e.(BatchEncoder); ok {
		be.EncodeBatch(dst, src)
		return
	}
	for i, w := range src {
		dst[i] = e.Encode(w)
	}
}

// EncodeBatch implements BatchEncoder.
func (*Unencoded) EncodeBatch(dst []uint64, src []uint32) {
	for i, w := range src {
		dst[i] = uint64(w)
	}
}

// EncodeBatch implements BatchEncoder.
func (*Gray) EncodeBatch(dst []uint64, src []uint32) {
	for i, w := range src {
		dst[i] = uint64(w ^ (w >> 1))
	}
}

// EncodeBatch implements BatchEncoder. The held word stays in a
// register across the batch, and a fresh encoder's first word is handled
// before the loop. Each word is sent complemented when more than half of
// the held word's data wires would toggle.
//
//nanolint:hotpath per-chunk BI encode under Simulator.StepBatch and every BI daemon session; allocates nothing
func (b *BI) EncodeBatch(dst []uint64, src []uint32) {
	if len(src) == 0 {
		return
	}
	dst = dst[:len(src)]
	if b.first {
		b.first = false
		b.prev = uint64(src[0])
		dst[0] = b.prev
		src, dst = src[1:], dst[1:]
	}
	prev := b.prev
	for i, w := range src {
		if bits.OnesCount32(uint32(prev)^w) > DataWidth/2 {
			prev = uint64(^w) | 1<<DataWidth
		} else {
			prev = uint64(w)
		}
		dst[i] = prev
	}
	b.prev = prev
}

// The mode decisions score coupling cost on bit masks (DESIGN.md §10): a
// pair costs 1 when exactly one of its wires toggles (a single pair) and
// 4 when both toggle in opposite directions (an opposed pair), which for
// two toggling wires means that their held bits differ. A candidate is
// the plain word with some wires inverted, so masks over the plain
// transition price every candidate. The helpers inline into the encode
// loops, where the compiler computes their shared masks once.

// cost returns the coupling cost of a candidate with the given numbers of
// single and opposed pairs.
func cost(singles, opposed int) int { return singles + 4*opposed }

// opposed returns the number of pairs in pairs that are opposed from prev
// to plain (kept) and from prev to plain with every wire of the bus
// inverted (inverted). Inverting both wires turns "both toggle" into
// "neither toggles" and keeps the held bits, so the two differ only in
// the toggle mask.
func opposed(prev, plain, pairs uint64) (kept, inverted int) {
	t := prev ^ plain
	t1 := t >> 1
	d := (prev ^ prev>>1) & pairs
	return bits.OnesCount64(t & t1 & d), bits.OnesCount64(d &^ (t | t1))
}

// oebiClassTerms returns the number of single pairs of the OEBI bus from
// prev to plain, and the opposed pairs of plain with the even or the odd
// class inverted. Every OEBI pair has one wire in each class, so
// inverting a class turns the single pairs into the other
// oebiPairCount - singles, and a single pair into an opposed one when
// its held bits differ and its toggling wire is in the class left alone.
// The even class's invert flips the odd wires; in a single pair, the
// even wire is the toggling one where t ^ oddWires is set.
func oebiClassTerms(prev, plain uint64) (singles, even, odd int) {
	t := prev ^ plain
	single := (t ^ t>>1) & oebiPairs
	opposable := single & (prev ^ prev>>1)
	return bits.OnesCount64(single),
		bits.OnesCount64(opposable & (t ^ oddWires)),
		bits.OnesCount64(opposable &^ (t ^ oddWires))
}

// EncodeBatch implements BatchEncoder, as BI's does. Each word takes the
// first strictly cheapest of its four modes.
//
//nanolint:hotpath per-chunk OEBI encode under Simulator.StepBatch; allocates nothing
func (o *OEBI) EncodeBatch(dst []uint64, src []uint32) {
	if len(src) == 0 {
		return
	}
	dst = dst[:len(src)]
	if o.first {
		o.first = false
		o.prev = uint64(src[0]) << 1
		dst[0] = o.prev
		src, dst = src[1:], dst[1:]
	}
	prev := o.prev
	for i, w := range src {
		plain := uint64(w) << 1
		singles, even, odd := oebiClassTerms(prev, plain)
		none, both := opposed(prev, plain, oebiPairs)
		mode, c := uint64(0), cost(singles, none)
		if x := cost(oebiPairCount-singles, even); x < c {
			mode, c = oebiEven, x
		}
		if x := cost(oebiPairCount-singles, odd); x < c {
			mode, c = oebiOdd, x
		}
		if cost(singles, both) < c {
			mode = oebiBoth
		}
		prev = plain ^ mode
		dst[i] = prev
	}
	o.prev = prev
}

// EncodeBatch implements BatchEncoder, as BI's does. Each word is sent
// complemented only when that is strictly cheaper.
//
//nanolint:hotpath per-chunk CBI encode under Simulator.StepBatch; allocates nothing
func (c *CBI) EncodeBatch(dst []uint64, src []uint32) {
	if len(src) == 0 {
		return
	}
	dst = dst[:len(src)]
	if c.first {
		c.first = false
		c.prev = uint64(src[0])
		dst[0] = c.prev
		src, dst = src[1:], dst[1:]
	}
	prev := c.prev
	for i, w := range src {
		// Both candidates have the same single pairs.
		if kept, inverted := opposed(prev, uint64(w), cbiPairs); inverted < kept {
			prev = uint64(^w) | 1<<DataWidth
		} else {
			prev = uint64(w)
		}
		dst[i] = prev
	}
	c.prev = prev
}

// EncodeBatch implements BatchEncoder.
func (t *T0) EncodeBatch(dst []uint64, src []uint32) {
	for i, w := range src {
		dst[i] = t.Encode(w)
	}
}
