// Cooling codes. The paper's BI/OEBI/CBI family minimizes *energy*; its
// own thermal model (Sec. 5.3) shows the failure mode at deep-submicron
// nodes is the *peak wire temperature*, which tracks each wire's
// sustained switching duty, not the bus total. "Cooling Codes"
// (Chee/Etzion/Kiah/Vardy, arXiv:1701.07872) design codes that bound the
// number of simultaneously hot wires; the two schemes here adapt that
// idea to the simulator's stateful-encoder contract:
//
//   - CoolSpread rotates the data-bit-to-wire mapping on a fixed word
//     period, spreading a hot bit position's duty across every wire of
//     the bus. No control wires are added (the decoder replays the
//     rotation from its own word counter), so the bandwidth overhead is
//     zero; the worst wire's long-run duty approaches the bus average.
//
//   - CoolCap partitions the 32 data bits into four groups of eight with
//     one invert line each, inverting any group whose intra-group
//     switching weight exceeds half the group. That caps the number of
//     simultaneously switching wires per group at 5 (4 data + the invert
//     line), bounding the per-transition heat burst any wire
//     neighbourhood sees, at a 4-wire (12.5%) overhead.
package encoding

import "math/bits"

// CoolSpreadPeriod is the default rotation period in transmitted words.
// Short enough that a phase-locked hot bit is spread well inside one
// 100K-cycle sampling interval, long enough that the whole-bus shift at
// each rotation boundary is amortized to under 2% of transitions.
const CoolSpreadPeriod = 64

// CoolSpread is the spreading cooling code: physical wire (j+r) mod 32
// carries data bit j, with the rotation r advancing by one every Period
// transmitted words. The mapping schedule is a pure function of the word
// count, so the decoder tracks it without any control wires.
type CoolSpread struct {
	// Period is the rotation period in words (0 means CoolSpreadPeriod).
	Period uint32
	prev   uint64
	count  uint32
	first  bool
}

// NewCoolSpread returns a spreading cooling-code encoder with the
// default rotation period.
func NewCoolSpread() *CoolSpread { return &CoolSpread{Period: CoolSpreadPeriod, first: true} }

// Name implements Encoder.
func (*CoolSpread) Name() string { return "CoolSpread" }

// Width implements Encoder.
func (*CoolSpread) Width() int { return DataWidth }

func (c *CoolSpread) period() uint32 {
	if c.Period == 0 {
		return CoolSpreadPeriod
	}
	return c.Period
}

// Encode implements Encoder.
func (c *CoolSpread) Encode(data uint32) uint64 {
	r := int(c.count / c.period() % DataWidth)
	c.count++
	c.first = false
	c.prev = uint64(bits.RotateLeft32(data, r))
	return c.prev
}

// Reset implements Encoder.
func (c *CoolSpread) Reset() { c.prev, c.count, c.first = 0, 0, true }

// EncodeBatch implements BatchEncoder.
func (c *CoolSpread) EncodeBatch(dst []uint64, src []uint32) {
	for i, w := range src {
		dst[i] = c.Encode(w)
	}
}

// State implements Stateful (the rotation word counter rides in Last).
func (c *CoolSpread) State() State { return State{Prev: c.prev, Last: c.count, First: c.first} }

// SetState implements Stateful.
func (c *CoolSpread) SetState(st State) { c.prev, c.count, c.first = st.Prev, st.Last, st.First }

// CoolSpreadDecoder decodes CoolSpread words by replaying the rotation
// schedule from its own word counter.
type CoolSpreadDecoder struct {
	Period uint32
	count  uint32
}

// NewCoolSpreadDecoder returns a decoder matching NewCoolSpread.
func NewCoolSpreadDecoder() *CoolSpreadDecoder { return &CoolSpreadDecoder{Period: CoolSpreadPeriod} }

// Decode implements Decoder.
func (d *CoolSpreadDecoder) Decode(phys uint64) uint32 {
	period := d.Period
	if period == 0 {
		period = CoolSpreadPeriod
	}
	r := int(d.count / period % DataWidth)
	d.count++
	return bits.RotateLeft32(uint32(phys), -r)
}

// Reset implements Decoder.
func (d *CoolSpreadDecoder) Reset() { d.count = 0 }

// --- CoolCap -----------------------------------------------------------------

// coolCapGroups partitions the 32 data bits into byte-sized groups, each
// with its own invert line on wires 32..35.
const coolCapGroups = 4

// CoolCap is the weight-capped cooling code: per-group bus-invert over
// four 8-bit groups. Group g occupies wires 8g..8g+7 and its invert line
// wire 32+g; a group is inverted whenever more than half of its bits
// would switch, capping simultaneous transitions at 4 data wires + 1
// invert line per group.
type CoolCap struct {
	prev  uint64
	first bool
}

// NewCoolCap returns a weight-capped cooling-code encoder.
func NewCoolCap() *CoolCap { return &CoolCap{first: true} }

// Name implements Encoder.
func (*CoolCap) Name() string { return "CoolCap" }

// Width implements Encoder.
func (*CoolCap) Width() int { return DataWidth + coolCapGroups }

// Encode implements Encoder.
func (c *CoolCap) Encode(data uint32) uint64 {
	if c.first {
		c.first = false
		c.prev = uint64(data)
		return c.prev
	}
	phys := uint64(data)
	for g := 0; g < coolCapGroups; g++ {
		shift := uint(8 * g)
		prevByte := uint32(c.prev>>shift) & 0xFF
		dataByte := (data >> shift) & 0xFF
		// Invert when more than half of the group's eight data bits would
		// switch. Only data bits are counted: the invert line's own
		// transition does not enter the decision.
		if bits.OnesCount32(prevByte^dataByte) > 4 {
			phys ^= 0xFF << shift              // invert the group's data bits
			phys |= 1 << (DataWidth + uint(g)) // raise the group's invert line
		}
	}
	c.prev = phys
	return phys
}

// Reset implements Encoder.
func (c *CoolCap) Reset() { c.prev, c.first = 0, true }

// EncodeBatch implements BatchEncoder.
func (c *CoolCap) EncodeBatch(dst []uint64, src []uint32) {
	for i, w := range src {
		dst[i] = c.Encode(w)
	}
}

// State implements Stateful.
func (c *CoolCap) State() State { return State{Prev: c.prev, First: c.first} }

// SetState implements Stateful.
func (c *CoolCap) SetState(st State) { c.prev, c.first = st.Prev, st.First }

// CoolCapDecoder decodes CoolCap words.
type CoolCapDecoder struct{}

// Decode implements Decoder.
func (*CoolCapDecoder) Decode(phys uint64) uint32 {
	data := uint32(phys)
	for g := 0; g < coolCapGroups; g++ {
		if phys&(1<<(DataWidth+uint(g))) != 0 {
			data ^= 0xFF << uint(8*g)
		}
	}
	return data
}

// Reset implements Decoder.
func (*CoolCapDecoder) Reset() {}

// --- Padded ------------------------------------------------------------------

// Padded widens an encoder to a fixed physical width without driving the
// extra wires: padding wires never switch, so they dissipate nothing and
// sit at ambient. The adaptive controller uses this to run two encoders
// of different native widths on one bus (the capacitance and thermal
// models are sized once, to the common width).
type Padded struct {
	inner Encoder
	width int
}

// Pad returns enc widened to width wires; it returns enc unchanged when
// the widths already agree. Pad panics if width is narrower than the
// encoder — callers size the bus to the family's maximum.
func Pad(enc Encoder, width int) Encoder {
	if enc.Width() == width {
		return enc
	}
	if enc.Width() > width {
		//nanolint:ignore libpanic callers pad to the family maximum by construction; a narrower width is a programming error, not input
		panic("encoding: Pad narrower than the encoder")
	}
	return &Padded{inner: enc, width: width}
}

// Name implements Encoder (the padding is a bus-geometry concern, not a
// scheme identity: a padded BI still encodes as "BI").
func (p *Padded) Name() string { return p.inner.Name() }

// Width implements Encoder.
func (p *Padded) Width() int { return p.width }

// Encode implements Encoder.
func (p *Padded) Encode(data uint32) uint64 { return p.inner.Encode(data) }

// Reset implements Encoder.
func (p *Padded) Reset() { p.inner.Reset() }

// EncodeBatch implements BatchEncoder.
func (p *Padded) EncodeBatch(dst []uint64, src []uint32) {
	EncodeWords(p.inner, dst, src)
}

// State implements Stateful when the inner encoder does; stateless inner
// encoders report a zero State.
func (p *Padded) State() State {
	if se, ok := p.inner.(Stateful); ok {
		return se.State()
	}
	return State{}
}

// SetState implements Stateful.
func (p *Padded) SetState(st State) {
	if se, ok := p.inner.(Stateful); ok {
		se.SetState(st)
	}
}
