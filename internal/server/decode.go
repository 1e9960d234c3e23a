package server

import "sync"

// frame is one pooled ingest buffer set: the raw read chunk and the
// decode fallback, both sized to Config.MaxBatchWords.
type frame struct {
	buf   []byte
	words []uint32
}

// framePool recycles ingest frames so the binary hot path costs zero
// steady-state allocations per request instead of ~5×MaxBatchWords bytes.
type framePool struct {
	p sync.Pool
}

func newFramePool(maxWords int) *framePool {
	return &framePool{p: sync.Pool{New: func() any {
		return &frame{
			buf:   make([]byte, maxWords*4),
			words: make([]uint32, maxWords),
		}
	}}}
}

func (fp *framePool) get() *frame  { return fp.p.Get().(*frame) }
func (fp *framePool) put(f *frame) { fp.p.Put(f) }

// scanBufPool recycles the NDJSON scanner's initial buffer. The scanner
// may grow past it (up to the request's maxLine); the original stays
// reusable either way, so put always returns what get handed out.
type scanBufPool struct {
	p sync.Pool
}

func newScanBufPool(size int) *scanBufPool {
	return &scanBufPool{p: sync.Pool{New: func() any {
		b := make([]byte, size)
		return &b
	}}}
}

func (sp *scanBufPool) get() *[]byte  { return sp.p.Get().(*[]byte) }
func (sp *scanBufPool) put(b *[]byte) { sp.p.Put(b) }
