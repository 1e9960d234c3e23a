// Package encoding implements the low-power bus encoding schemes the paper
// evaluates (Sec. 5.2) — bus-invert (BI), odd/even bus-invert (OEBI) and
// coupling-driven bus-invert (CBI) — plus an unencoded baseline and two
// extension codes (Gray, T0) for the address-bus study the paper motivates.
//
// Encoders are stateful: every scheme's decision depends on the word
// currently held on the physical bus. Width() reports the number of
// physical wires including invert/control lines, which the energy model
// charges like any other line (the paper's setup: BI and CBI add one
// invert line as the MSB; OEBI adds two, odd-invert as the LSB and
// even-invert as the MSB).
package encoding

import (
	"errors"
	"fmt"
)

// Encoder maps 32-bit data words onto physical bus words.
type Encoder interface {
	// Name identifies the scheme ("BI", "OEBI", ...).
	Name() string
	// Width returns the physical bus width in wires (>= 32).
	Width() int
	// Encode returns the physical word to drive for data, updating the
	// encoder's state.
	Encode(data uint32) uint64
	// Reset returns the encoder to its initial (bus undriven) state.
	Reset()
}

// Decoder recovers data words from physical bus words.
type Decoder interface {
	// Decode recovers the data word from the physical word, updating any
	// decoder state.
	Decode(phys uint64) uint32
	// Reset clears decoder state.
	Reset()
}

// DataWidth is the address width of the paper's buses.
const DataWidth = 32

// dir returns the normalised transition direction of bit i: +1 rising,
// -1 falling, 0 quiet.
func dir(prev, cur uint64, i int) int {
	p := int((prev >> uint(i)) & 1)
	c := int((cur >> uint(i)) & 1)
	return c - p
}

// --- Unencoded -----------------------------------------------------------

// Unencoded is the pass-through baseline.
type Unencoded struct{}

// NewUnencoded returns the pass-through baseline encoder.
func NewUnencoded() *Unencoded { return &Unencoded{} }

// Name implements Encoder.
func (*Unencoded) Name() string { return "Unencoded" }

// Width implements Encoder.
func (*Unencoded) Width() int { return DataWidth }

// Encode implements Encoder.
func (*Unencoded) Encode(data uint32) uint64 { return uint64(data) }

// Reset implements Encoder.
func (*Unencoded) Reset() {}

// UnencodedDecoder decodes the pass-through scheme.
type UnencodedDecoder struct{}

// Decode implements Decoder.
func (*UnencodedDecoder) Decode(phys uint64) uint32 { return uint32(phys) }

// Reset implements Decoder.
func (*UnencodedDecoder) Reset() {}

// --- Bus-invert (Stan & Burleson) ---------------------------------------

// BI is classic bus-invert coding: if the Hamming distance between the new
// data and the word on the bus exceeds half the bus width, transmit the
// complement and raise the invert line (wire 32, the MSB position).
type BI struct {
	prev  uint64
	first bool
}

// NewBI returns a bus-invert encoder.
func NewBI() *BI { return &BI{first: true} }

// Name implements Encoder.
func (*BI) Name() string { return "BI" }

// Width implements Encoder.
func (*BI) Width() int { return DataWidth + 1 }

// Encode implements Encoder: EncodeBatch of one word.
func (b *BI) Encode(data uint32) uint64 {
	var out [1]uint64
	b.EncodeBatch(out[:], []uint32{data})
	return out[0]
}

// Reset implements Encoder.
func (b *BI) Reset() { b.prev = 0; b.first = true }

// BIDecoder decodes bus-invert words.
type BIDecoder struct{}

// Decode implements Decoder.
func (*BIDecoder) Decode(phys uint64) uint32 {
	data := uint32(phys)
	if phys&(1<<DataWidth) != 0 {
		data = ^data
	}
	return data
}

// Reset implements Decoder.
func (*BIDecoder) Reset() {}

// --- Odd/even bus-invert (Zhang et al.) ----------------------------------

// OEBI is odd/even bus-invert: even and odd bit positions are invertible
// independently, choosing among the four modes (none / even / odd / all
// inverted) the one with the lowest coupling cost on the physical bus. Per
// the paper's setup the odd-invert line is the LSB wire (wire 0) and the
// even-invert line the MSB wire (wire 33); data occupies wires 1..32.
type OEBI struct {
	prev  uint64
	first bool
}

// NewOEBI returns an odd/even bus-invert encoder.
func NewOEBI() *OEBI { return &OEBI{first: true} }

// Name implements Encoder.
func (*OEBI) Name() string { return "OEBI" }

// Width implements Encoder.
func (*OEBI) Width() int { return DataWidth + 2 }

const (
	oebiEvenMask = uint32(0x55555555) // data bits 0,2,4,... (even positions)
	oebiOddMask  = uint32(0xAAAAAAAA)
)

// The OEBI candidates are XOR masks over the uninverted physical word, in
// tie-break order none, even, odd, both: each flips its parity class's
// data wires and raises that class's invert line.
const (
	oebiEven = uint64(oebiEvenMask)<<1 | 1<<(DataWidth+1)
	oebiOdd  = uint64(oebiOddMask)<<1 | 1
	oebiBoth = oebiEven | oebiOdd
	// oebiPairs masks the oebiPairCount pairs of the 34-wire OEBI bus:
	// bit i is the pair of wires i and i+1.
	oebiPairCount = DataWidth + 1
	oebiPairs     = 1<<oebiPairCount - 1
	// oddWires masks the odd wire positions.
	oddWires = 0xAAAAAAAAAAAAAAAA
)

// Encode implements Encoder: EncodeBatch of one word.
func (o *OEBI) Encode(data uint32) uint64 {
	var out [1]uint64
	o.EncodeBatch(out[:], []uint32{data})
	return out[0]
}

// Reset implements Encoder.
func (o *OEBI) Reset() { o.prev = 0; o.first = true }

// OEBIDecoder decodes odd/even bus-invert words.
type OEBIDecoder struct{}

// Decode implements Decoder.
func (*OEBIDecoder) Decode(phys uint64) uint32 {
	data := uint32(phys >> 1)
	if phys&1 != 0 {
		data ^= oebiOddMask
	}
	if phys&(1<<(DataWidth+1)) != 0 {
		data ^= oebiEvenMask
	}
	return data
}

// Reset implements Decoder.
func (*OEBIDecoder) Reset() {}

// --- Coupling-driven bus-invert (Kim et al.) ------------------------------

// CBI is coupling-driven bus-invert: transmit the data or its complement,
// whichever has the lower coupling cost against the word on the bus
// (including the invert line itself, placed at the MSB like BI).
type CBI struct {
	prev  uint64
	first bool
}

// NewCBI returns a coupling-driven bus-invert encoder.
func NewCBI() *CBI { return &CBI{first: true} }

// Name implements Encoder.
func (*CBI) Name() string { return "CBI" }

// Width implements Encoder.
func (*CBI) Width() int { return DataWidth + 1 }

// cbiPairs masks the pairs of the 33-wire CBI bus.
const cbiPairs = 1<<DataWidth - 1

// Encode implements Encoder: EncodeBatch of one word.
func (c *CBI) Encode(data uint32) uint64 {
	var out [1]uint64
	c.EncodeBatch(out[:], []uint32{data})
	return out[0]
}

// Reset implements Encoder.
func (c *CBI) Reset() { c.prev = 0; c.first = true }

// CBIDecoder decodes coupling-driven bus-invert words (same layout as BI).
type CBIDecoder = BIDecoder

// --- Gray (extension) -----------------------------------------------------

// Gray transmits the Gray code of the address, an extension scheme for
// sequential address streams (single-bit transitions between consecutive
// addresses).
type Gray struct{}

// NewGray returns a Gray-code encoder.
func NewGray() *Gray { return &Gray{} }

// Name implements Encoder.
func (*Gray) Name() string { return "Gray" }

// Width implements Encoder.
func (*Gray) Width() int { return DataWidth }

// Encode implements Encoder.
func (*Gray) Encode(data uint32) uint64 { return uint64(data ^ (data >> 1)) }

// Reset implements Encoder.
func (*Gray) Reset() {}

// GrayDecoder decodes Gray-coded words.
type GrayDecoder struct{}

// Decode implements Decoder.
func (*GrayDecoder) Decode(phys uint64) uint32 {
	g := uint32(phys)
	g ^= g >> 16
	g ^= g >> 8
	g ^= g >> 4
	g ^= g >> 2
	g ^= g >> 1
	return g
}

// Reset implements Decoder.
func (*GrayDecoder) Reset() {}

// --- T0 (extension) --------------------------------------------------------

// T0 freezes the bus when the address follows the expected sequential
// stride and raises an INC line instead (wire 32); otherwise the raw
// address is transmitted with INC low. Stride is the instruction size.
type T0 struct {
	Stride uint32
	prev   uint64
	last   uint32
	first  bool
}

// NewT0 returns a T0 encoder with the given sequential stride (e.g. 4 for
// word-addressed instruction fetch).
func NewT0(stride uint32) *T0 {
	if stride == 0 {
		stride = 4
	}
	return &T0{Stride: stride, first: true}
}

// Name implements Encoder.
func (*T0) Name() string { return "T0" }

// Width implements Encoder.
func (*T0) Width() int { return DataWidth + 1 }

// Encode implements Encoder.
func (t *T0) Encode(data uint32) uint64 {
	if t.first {
		t.first = false
		t.last = data
		t.prev = uint64(data)
		return t.prev
	}
	if data == t.last+t.Stride {
		// Freeze data lines, raise INC.
		t.prev = (t.prev & (1<<DataWidth - 1)) | 1<<DataWidth
	} else {
		t.prev = uint64(data)
	}
	t.last = data
	return t.prev
}

// Reset implements Encoder.
func (t *T0) Reset() { t.prev, t.last, t.first = 0, 0, true }

// T0Decoder decodes T0 words.
type T0Decoder struct {
	Stride uint32
	last   uint32
	first  bool
}

// NewT0Decoder returns a decoder matching NewT0(stride).
func NewT0Decoder(stride uint32) *T0Decoder {
	if stride == 0 {
		stride = 4
	}
	return &T0Decoder{Stride: stride, first: true}
}

// Decode implements Decoder.
func (d *T0Decoder) Decode(phys uint64) uint32 {
	if d.first {
		d.first = false
		d.last = uint32(phys)
		return d.last
	}
	if phys&(1<<DataWidth) != 0 {
		d.last += d.Stride
	} else {
		d.last = uint32(phys)
	}
	return d.last
}

// Reset implements Decoder.
func (d *T0Decoder) Reset() { d.last, d.first = 0, true }

// --- Registry ---------------------------------------------------------------

// ErrUnknownScheme is wrapped by the errors New and NewDecoder return for
// unrecognised scheme names; test with errors.Is.
var ErrUnknownScheme = errors.New("encoding: unknown scheme")

// New returns a fresh encoder by name. Recognised names: "Unencoded", "BI",
// "OEBI", "CBI", "Gray", "T0", "CoolSpread", "CoolCap".
func New(name string) (Encoder, error) {
	switch name {
	case "Unencoded", "unencoded", "none":
		return NewUnencoded(), nil
	case "BI", "bi":
		return NewBI(), nil
	case "OEBI", "oebi":
		return NewOEBI(), nil
	case "CBI", "cbi":
		return NewCBI(), nil
	case "Gray", "gray":
		return NewGray(), nil
	case "T0", "t0":
		return NewT0(4), nil
	case "CoolSpread", "coolspread":
		return NewCoolSpread(), nil
	case "CoolCap", "coolcap":
		return NewCoolCap(), nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownScheme, name)
	}
}

// NewDecoder returns the decoder matching the named scheme.
func NewDecoder(name string) (Decoder, error) {
	switch name {
	case "Unencoded", "unencoded", "none":
		return &UnencodedDecoder{}, nil
	case "BI", "bi":
		return &BIDecoder{}, nil
	case "OEBI", "oebi":
		return &OEBIDecoder{}, nil
	case "CBI", "cbi":
		return &CBIDecoder{}, nil
	case "Gray", "gray":
		return &GrayDecoder{}, nil
	case "T0", "t0":
		return NewT0Decoder(4), nil
	case "CoolSpread", "coolspread":
		return NewCoolSpreadDecoder(), nil
	case "CoolCap", "coolcap":
		return &CoolCapDecoder{}, nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownScheme, name)
	}
}

// PaperSchemes lists the schemes evaluated in the paper's Fig. 3, in its
// presentation order.
func PaperSchemes() []string { return []string{"BI", "OEBI", "CBI", "Unencoded"} }

// AllSchemes lists every implemented scheme including extensions.
func AllSchemes() []string {
	return []string{"Unencoded", "BI", "OEBI", "CBI", "Gray", "T0", "CoolSpread", "CoolCap"}
}
