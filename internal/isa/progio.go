package isa

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"nanobus/internal/wire"
)

// progMagic identifies serialized NB32 programs ("NBX1" format): magic,
// entry point u32, segment count u32, then per segment its address u32
// and its bytes behind a u32 length, all little-endian.
const progMagic = "NBX1"

// walk codes p after the magic, on the codec every binary layout shares.
func (p *Program) walk(c *wire.Codec) {
	c.U32(&p.Entry)
	wire.List(c, &p.Segments, 8, func(seg *Segment) {
		c.U32(&seg.Addr)
		c.Bytes(&seg.Data, 4)
	})
}

// WriteProgram serializes a program.
func WriteProgram(w io.Writer, p *Program) error {
	c := wire.Writer([]byte(progMagic))
	p.walk(&c)
	if err := c.Err(); err != nil {
		return fmt.Errorf("isa: encoding program: %w", err)
	}
	if _, err := w.Write(c.Written()); err != nil {
		return fmt.Errorf("isa: writing program: %w", err)
	}
	return nil
}

// ReadProgram deserializes a program. Symbols are not stored in the binary
// format and come back empty.
func ReadProgram(r io.Reader) (*Program, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("isa: reading program: %w", err)
	}
	if !strings.HasPrefix(string(data), progMagic) {
		return nil, fmt.Errorf("isa: bad program magic %q", data[:min(len(data), len(progMagic))])
	}
	p := &Program{Symbols: map[string]uint32{}}
	c := wire.Reader(data[len(progMagic):])
	p.walk(&c)
	if err := c.Close(); err != nil {
		return nil, fmt.Errorf("isa: decoding program: %w", err)
	}
	return p, nil
}

// Disassemble renders a segment's words as assembly, one instruction per
// line with addresses.
func Disassemble(w io.Writer, seg Segment) error {
	for off := 0; off+4 <= len(seg.Data); off += 4 {
		word := binary.LittleEndian.Uint32(seg.Data[off : off+4])
		in := Decode(word)
		text := in.String()
		if in.Op == OpInvalid {
			text = fmt.Sprintf(".word %#08x", word)
		}
		if _, err := fmt.Fprintf(w, "%08x:  %08x  %s\n", seg.Addr+uint32(off), word, text); err != nil {
			return err
		}
	}
	return nil
}
