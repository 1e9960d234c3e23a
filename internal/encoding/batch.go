// Batch encoding. The simulator's batch pipeline encodes whole word
// slices at a time; going through Encoder.Encode would cost one interface
// dispatch per word, which on the batch hot path is comparable to the
// energy kernel itself. BatchEncoder is the optional batch fast path:
// every built-in scheme implements it, stateless schemes as a tight loop
// and stateful ones as a direct (devirtualized) method-call loop. Batch
// encoding is defined to be exactly Encode applied in order, so results
// are bit-identical either way.
package encoding

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

// EncodeBatch implements BatchEncoder.
func (b *BI) EncodeBatch(dst []uint64, src []uint32) {
	for i, w := range src {
		dst[i] = b.Encode(w)
	}
}

// EncodeBatch implements BatchEncoder. The held word stays in a
// register across the batch, and a fresh encoder's first word is handled
// before the loop. Each word takes the first strictly cheapest of its
// four modes.
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
		best, bestCost := plain, couplingCost(prev, plain, oebiPairs)
		if c := couplingCost(prev, plain^oebiEven, oebiPairs); c < bestCost {
			best, bestCost = plain^oebiEven, c
		}
		if c := couplingCost(prev, plain^oebiOdd, oebiPairs); c < bestCost {
			best, bestCost = plain^oebiOdd, c
		}
		if c := couplingCost(prev, plain^oebiBoth, oebiPairs); c < bestCost {
			best = plain ^ oebiBoth
		}
		prev = best
		dst[i] = prev
	}
	o.prev = prev
}

// EncodeBatch implements BatchEncoder, as OEBI's does. Each word is sent
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
		plain, inverted := uint64(w), uint64(^w)|1<<DataWidth
		if couplingCost(prev, inverted, cbiPairs) < couplingCost(prev, plain, cbiPairs) {
			prev = inverted
		} else {
			prev = plain
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
