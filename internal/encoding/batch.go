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

// EncodeBatch implements BatchEncoder.
//
//nanolint:hotpath per-chunk OEBI encode under Simulator.StepBatch; allocates nothing
func (o *OEBI) EncodeBatch(dst []uint64, src []uint32) {
	for i, w := range src {
		dst[i] = o.Encode(w)
	}
}

// EncodeBatch implements BatchEncoder.
//
//nanolint:hotpath per-chunk CBI encode under Simulator.StepBatch; allocates nothing
func (c *CBI) EncodeBatch(dst []uint64, src []uint32) {
	for i, w := range src {
		dst[i] = c.Encode(w)
	}
}

// EncodeBatch implements BatchEncoder.
func (t *T0) EncodeBatch(dst []uint64, src []uint32) {
	for i, w := range src {
		dst[i] = t.Encode(w)
	}
}
