// Package trace defines the address-trace representation shared by the CPU
// simulator (which produces traces) and the bus simulator (which consumes
// them), together with synthetic trace generators, idle injection, a
// compact binary codec, and stream statistics.
//
// The unit of a trace is the Cycle: what the processor-to-L1 instruction
// address (IA) and data address (DA) buses carry during one committed
// instruction slot, following the paper's methodology (Sec. 5.1): the IA
// bus carries the fetch address every cycle; the DA bus carries an address
// only on loads/stores and otherwise holds its previous value (idle, no
// dissipation).
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Cycle is one committed-instruction slot on the address buses.
type Cycle struct {
	// IValid is false only for injected full-idle cycles.
	IValid bool
	// IAddr is the instruction fetch address.
	IAddr uint32
	// DValid reports whether a data address is driven this cycle.
	DValid bool
	// DAddr is the data (load/store) address, valid when DValid.
	DAddr uint32
	// DStore reports whether the data access is a store.
	DStore bool
}

// Source yields consecutive bus cycles. Next returns ok=false at
// end-of-trace.
type Source interface {
	Next() (Cycle, bool)
}

// SliceSource replays a fixed slice of cycles.
type SliceSource struct {
	cycles []Cycle
	pos    int
}

// NewSliceSource returns a Source over the given cycles.
func NewSliceSource(cycles []Cycle) *SliceSource { return &SliceSource{cycles: cycles} }

// Next implements Source.
func (s *SliceSource) Next() (Cycle, bool) {
	if s.pos >= len(s.cycles) {
		return Cycle{}, false
	}
	c := s.cycles[s.pos]
	s.pos++
	return c, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Skip discards the first n cycles of src (the paper's warm-up skip of the
// initial instructions) and then passes through. A source with its own
// Skip(n uint64) method, such as a CPU trace source, skips through it
// instead of building every cycle; it must leave the source as n calls of
// Next would.
func Skip(src Source, n uint64) Source {
	if s, ok := src.(interface{ Skip(n uint64) }); ok {
		s.Skip(n)
		return src
	}
	for i := uint64(0); i < n; i++ {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	return src
}

// IdleWindow describes a [Start, Start+Length) cycle range during which the
// injector forces both buses idle.
type IdleWindow struct {
	Start, Length uint64
}

// IdleInjector wraps a source and replaces the cycles inside the given
// windows with full-idle cycles *in addition to* the underlying traffic
// (the underlying source is paused, not consumed, during a window). This
// reproduces the paper's Fig. 5 experiment: intermittent ~1M-cycle idle
// periods in which bus energy drops to zero.
type IdleInjector struct {
	src     Source
	windows []IdleWindow
	cycle   uint64
}

// NewIdleInjector wraps src with the given idle windows (must be sorted by
// Start and non-overlapping).
func NewIdleInjector(src Source, windows []IdleWindow) (*IdleInjector, error) {
	var prevEnd uint64
	for i, w := range windows {
		if w.Length == 0 {
			return nil, fmt.Errorf("trace: idle window %d has zero length", i)
		}
		if w.Start < prevEnd {
			return nil, fmt.Errorf("trace: idle windows overlap or are unsorted at %d", i)
		}
		prevEnd = w.Start + w.Length
	}
	return &IdleInjector{src: src, windows: windows}, nil
}

// Next implements Source.
func (ii *IdleInjector) Next() (Cycle, bool) {
	for len(ii.windows) > 0 {
		w := ii.windows[0]
		if ii.cycle < w.Start {
			break
		}
		if ii.cycle < w.Start+w.Length {
			ii.cycle++
			return Cycle{}, true // full idle: both buses hold
		}
		ii.windows = ii.windows[1:]
	}
	c, ok := ii.src.Next()
	if !ok {
		return Cycle{}, false
	}
	ii.cycle++
	return c, true
}

// --- Binary codec -----------------------------------------------------------

// Writer streams cycles in the compact nanotrace binary format:
// a 1-byte flags field (bit0 IValid, bit1 DValid, bit2 DStore) followed by
// the valid addresses as little-endian uint32s.
type Writer struct {
	w   *bufio.Writer
	buf [9]byte
	n   uint64
}

// magic identifies nanotrace streams.
var magic = [4]byte{'N', 'B', 'T', '1'}

// NewWriter writes the stream header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one cycle.
func (tw *Writer) Write(c Cycle) error {
	b := tw.buf[:1]
	var flags byte
	if c.IValid {
		flags |= 1
	}
	if c.DValid {
		flags |= 2
	}
	if c.DStore {
		flags |= 4
	}
	tw.buf[0] = flags
	if c.IValid {
		b = binary.LittleEndian.AppendUint32(b, c.IAddr)
	}
	if c.DValid {
		b = binary.LittleEndian.AppendUint32(b, c.DAddr)
	}
	if _, err := tw.w.Write(b); err != nil {
		return fmt.Errorf("trace: writing cycle %d: %w", tw.n, err)
	}
	tw.n++
	return nil
}

// Flush flushes buffered output; call once after the last Write.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Cycles returns the number of cycles written.
func (tw *Writer) Cycles() uint64 { return tw.n }

// Reader streams cycles from the nanotrace binary format; it implements
// Source.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:])
	}
	return &Reader{r: br}, nil
}

// Next implements Source.
func (tr *Reader) Next() (Cycle, bool) {
	if tr.err != nil {
		return Cycle{}, false
	}
	flags, err := tr.r.ReadByte()
	if err != nil {
		tr.err = err
		return Cycle{}, false
	}
	var c Cycle
	c.IValid = flags&1 != 0
	c.DValid = flags&2 != 0
	c.DStore = flags&4 != 0
	var word [4]byte
	if c.IValid {
		if _, err := io.ReadFull(tr.r, word[:]); err != nil {
			tr.err = err
			return Cycle{}, false
		}
		c.IAddr = binary.LittleEndian.Uint32(word[:])
	}
	if c.DValid {
		if _, err := io.ReadFull(tr.r, word[:]); err != nil {
			tr.err = err
			return Cycle{}, false
		}
		c.DAddr = binary.LittleEndian.Uint32(word[:])
	}
	return c, true
}

// Err returns the terminal error, if any (io.EOF is reported as nil).
func (tr *Reader) Err() error {
	if tr.err == io.EOF {
		return nil
	}
	return tr.err
}
