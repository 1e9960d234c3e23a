// Package wire is the one codec behind the binary layouts nanobus
// writes whole: NBCP checkpoints (internal/core), the NBSE checkpoint
// envelope (internal/server), the NBWP payloads (internal/nbwp) and NBX1
// program images (internal/isa). The streamed ones (the NBWP frame
// header and STEP words, NBT traces) are coded by hand on their hot
// paths.
//
// A Codec writes or reads little-endian fields through pointers, so one
// walk over a plain struct describes a layout in both directions:
// writing appends *p to the buffer and never stores through p; reading
// stores the next field through p. Errors are sticky: once one is set,
// reads return zeros and the walk runs to its end, so a decoder reads
// linearly and checks once, at Close. Integers are little-endian, floats
// travel as IEEE-754 bit patterns, a bool is one byte (0 or 1).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Codec is a writer or a reader of one binary layout.
type Codec struct {
	write bool
	buf   []byte
	off   int // read position
	err   error
}

// Writer returns a codec appending to dst.
func Writer(dst []byte) Codec { return Codec{write: true, buf: dst} }

// Reader returns a codec reading p from its start.
func Reader(p []byte) Codec { return Codec{buf: p} }

// Writing reports whether c writes.
func (c *Codec) Writing() bool { return c.write }

// Written returns a writer's buffer: dst, then what it has written.
func (c *Codec) Written() []byte { return c.buf }

// Err returns the sticky error.
func (c *Codec) Err() error { return c.err }

// Close returns the sticky error or, reading, an error for bytes left
// after the layout.
func (c *Codec) Close() error {
	if c.err == nil && !c.write && c.off != len(c.buf) {
		c.Fail("%d trailing bytes after the payload", len(c.buf)-c.off)
	}
	return c.err
}

// Fail records the first error: truncation, an oversized field, or a
// field that breaks its layout's validity rule.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// remaining returns the bytes a reader has left.
func (c *Codec) remaining() int { return len(c.buf) - c.off }

// truncated is the error of a read past the end of the payload. It is
// formatted only when printed, so take sets it without a call and stays
// small enough to inline into Uint.
type truncated struct{ off, want int }

func (e truncated) Error() string {
	return fmt.Sprintf("truncated at offset %d (want %d more bytes)", e.off, e.want)
}

// take consumes n bytes; once the codec has failed it returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if uint(n) > uint(len(c.buf)-c.off) {
		c.err = truncated{c.off, n}
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off]
}

// Uint codes an n-byte (1 to 8) little-endian integer: writing, it
// appends v and returns it; reading, it returns the next n bytes' value.
func (c *Codec) Uint(v uint64, n int) uint64 {
	if c.write {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, v)[:len(c.buf)+n]
		return v
	}
	var b [8]byte
	copy(b[:], c.take(n))
	return binary.LittleEndian.Uint64(b[:])
}

// get8 reads an 8-byte little-endian integer without Uint's copy; once
// the codec has failed it reads 0.
func (c *Codec) get8() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Set stores v through p when reading.
func Set[T any](c *Codec, p *T, v T) {
	if !c.write {
		*p = v
	}
}

func (c *Codec) U16(p *uint16) { Set(c, p, uint16(c.Uint(uint64(*p), 2))) }
func (c *Codec) U32(p *uint32) { Set(c, p, uint32(c.Uint(uint64(*p), 4))) }
func (c *Codec) I64(p *int64)  { Set(c, p, int64(c.Uint(uint64(*p), 8))) }

// U64 and F64, the fields of every STEP ack and SAMPLE, read through
// get8 rather than Uint; U64 inlines whole into a walk.
func (c *Codec) U64(p *uint64) {
	if c.write {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	} else {
		*p = c.get8()
	}
}

func (c *Codec) F64(p *float64) {
	if c.write {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
	} else {
		*p = math.Float64frombits(c.get8())
	}
}

// Int codes an int as an n-byte two's-complement integer; writing a
// value n bytes cannot hold is an error.
func (c *Codec) Int(p *int, n int) {
	shift := 64 - 8*n
	if v := int64(*p); c.write && v<<shift>>shift != v {
		c.Fail("%d overflows %d bytes", v, n)
	}
	Set(c, p, int(int64(c.Uint(uint64(*p), n)<<shift)>>shift))
}

// Bool codes a one-byte bool; a byte other than 0 or 1 is an error.
func (c *Codec) Bool(p *bool) {
	var b uint64
	if *p {
		b = 1
	}
	b = c.Uint(b, 1)
	if b > 1 {
		c.Fail("bool byte %d", b)
	}
	Set(c, p, b == 1)
}

// span codes the length of a field of size bytes behind an n-byte
// prefix (n = 1, 2 or 4), or with n = 0 a field that runs to the end of
// the payload, and returns the field's bytes when reading. Writing, a
// field longer than its prefix can state is an error.
func (c *Codec) span(size, n int) []byte {
	if n == 0 {
		if c.write {
			return nil
		}
		return c.take(c.remaining())
	}
	if c.write && uint64(size) >= 1<<(8*n) {
		c.Fail("a %d-byte field overflows its %d-byte length prefix", size, n)
	}
	v := c.Uint(uint64(size), n)
	if c.write {
		return nil
	}
	return c.take(int(v))
}

// Str codes a string behind an n-byte length prefix, or with n = 0 as
// the rest of the payload. Reading into a string that already holds the
// decoded bytes keeps it and allocates nothing.
func (c *Codec) Str(p *string, n int) {
	b := c.span(len(*p), n)
	if c.write {
		c.buf = append(c.buf, *p...)
	} else if string(b) != *p {
		*p = string(b)
	}
}

// Bytes codes a byte string like Str; reading aliases the codec's input
// (nil when the field is empty or the codec has failed).
func (c *Codec) Bytes(p *[]byte, n int) {
	b := c.span(len(*p), n)
	if c.write {
		c.buf = append(c.buf, *p...)
	} else {
		*p = b
	}
}

// Count codes a u32 element count; reading, a count the remaining
// payload cannot hold at minBytes an element is an error and reads as 0.
func (c *Codec) Count(n *int, minBytes int) {
	v := uint32(*n)
	c.U32(&v)
	if !c.write && int(v) > c.remaining()/minBytes {
		c.Fail("count %d exceeds the remaining payload", v)
		v = 0
	}
	Set(c, n, int(v))
}

// Each codes the n elements of *s; reading allocates them (nil for none).
func Each[T any](c *Codec, s *[]T, n int, elem func(*T)) {
	if !c.write {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// List codes a counted slice: its count, then each element.
func List[T any](c *Codec, s *[]T, minBytes int, elem func(*T)) {
	n := len(*s)
	c.Count(&n, minBytes)
	Each(c, s, n, elem)
}

// --- Sealed blobs -----------------------------------------------------------

// crcLen is the length of a sealed blob's CRC-32 trailer.
const crcLen = 4

// Sealed returns a writer for a sealed blob: magic, then what the walk
// writes, then the trailer Seal adds. size is a capacity hint for the
// walk's bytes.
func Sealed(magic string, size int) Codec {
	return Writer(append(make([]byte, 0, len(magic)+size+crcLen), magic...))
}

// Seal ends a sealed blob with the CRC-32 (IEEE) of every preceding byte
// and returns it, or the walk's error.
func (c *Codec) Seal() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	crc := crc32.ChecksumIEEE(c.buf)
	c.U32(&crc)
	return c.buf, nil
}

// Open checks a sealed blob's length, magic and CRC trailer and returns a
// reader over its body, positioned after the magic.
func Open(blob []byte, magic string) (Codec, error) {
	if len(blob) < len(magic)+crcLen {
		return Codec{}, fmt.Errorf("%d bytes is shorter than any %s blob", len(blob), magic)
	}
	if string(blob[:len(magic)]) != magic {
		return Codec{}, fmt.Errorf("bad magic %q (want %q)", blob[:len(magic)], magic)
	}
	body := blob[:len(blob)-crcLen]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(blob[len(body):]); got != want {
		return Codec{}, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return Codec{buf: body, off: len(magic)}, nil
}
