package cpu

import (
	"encoding/binary"
	"fmt"

	"nanobus/internal/isa"
)

// pageBits selects a 4 KiB page granule for the sparse memory.
const pageBits = 12
const pageSize = 1 << pageBits

// pageWords is the number of instruction slots in a page.
const pageWords = pageSize / 4

// A page number splits into a directory index (its high dirBits) and a
// slot in that directory entry's table (its low tableBits).
const (
	dirBits   = 10
	tableBits = 32 - pageBits - dirBits
)

// pageTable is the second level of Memory's page table.
type pageTable [1 << tableBits]*page

// noPage is a page number no 32-bit address maps to; it marks an empty
// one-entry page cache.
const noPage = ^uint32(0)

// page is one materialised page: its bytes and, once anything on it has
// been fetched, the decoded form of each of its words.
type page struct {
	data [pageSize]byte
	// dec caches the decode of each word that has been fetched. It is
	// allocated on the page's first fetch, so data-only pages never pay
	// for it. Every write to a word clears that word's entry, so an entry
	// marked valid always decodes the bytes currently in data.
	dec *[pageWords]decoded
}

// decoded is one cached instruction decode.
type decoded struct {
	in isa.Inst
	// class selects the Counters field Step bumps for the instruction.
	class uint8
	valid bool
}

// Memory is a sparse, paged, little-endian 32-bit byte-addressable memory.
// Pages materialise (zero-filled) on first touch, so multi-megabyte
// workload footprints cost only what they touch.
//
// Pages are found through a two-level page table, whose tables also
// materialise on first touch: two dependent loads instead of a hash-map
// probe, which matters because the benchmarks' strided data accesses
// change page on 12-100% of loads and stores. Two one-entry page caches
// sit in front of it, one for instruction fetches and one for data
// accesses; code and data pages alternate on every load and store, so a
// single shared entry would miss on nearly every access. Pages are never
// freed, so a cached pointer stays valid.
type Memory struct {
	dir   [1 << dirBits]*pageTable
	count int

	fetchPN, dataPN     uint32
	fetchPage, dataPage *page
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{fetchPN: noPage, dataPN: noPage}
}

// lookup returns page pn, materialising it on first touch.
func (m *Memory) lookup(pn uint32) *page {
	t := m.dir[pn>>tableBits]
	if t == nil {
		t = new(pageTable)
		m.dir[pn>>tableBits] = t
	}
	slot := &t[pn&(1<<tableBits-1)]
	if *slot == nil {
		*slot = new(page)
		m.count++
	}
	return *slot
}

// page returns the page holding data address addr.
func (m *Memory) page(addr uint32) *page {
	if pn := addr >> pageBits; pn != m.dataPN {
		m.dataPN, m.dataPage = pn, m.lookup(pn)
	}
	return m.dataPage
}

// fetch returns the decoded instruction at addr, decoding the word on its
// first fetch since it was last written. The entry lives in the page's
// cache and is overwritten when the word is decoded again, so callers
// copy what they need before executing the instruction.
//
//nanolint:hotpath one probe per committed instruction; after a page's first fetch it allocates nothing
func (m *Memory) fetch(addr uint32) (*decoded, error) {
	if addr&3 != 0 {
		return nil, fmt.Errorf("cpu: unaligned word read at %#x", addr)
	}
	if pn := addr >> pageBits; pn != m.fetchPN {
		m.fetchPN, m.fetchPage = pn, m.lookup(pn)
	}
	p := m.fetchPage
	if p.dec == nil {
		p.dec = new([pageWords]decoded) //nanolint:ignore hotalloc once per code page, on its first fetch; every later fetch from the page reuses it
	}
	off := addr & (pageSize - 1)
	d := &p.dec[off>>2]
	if !d.valid {
		in := isa.Decode(binary.LittleEndian.Uint32(p.data[off : off+4]))
		*d = decoded{in: in, class: classOf(in.Op), valid: true}
	}
	return d, nil
}

// invalidate drops the cached decode of the word holding byte offset off.
func (p *page) invalidate(off uint32) {
	if p.dec != nil {
		p.dec[off>>2].valid = false
	}
}

// PageCount returns the number of materialised pages.
func (m *Memory) PageCount() int { return m.count }

// LoadProgram copies a program's segments into memory.
func (m *Memory) LoadProgram(p *isa.Program) {
	for _, seg := range p.Segments {
		m.WriteBytes(seg.Addr, seg.Data)
	}
}

// WriteBytes copies b to addr, crossing pages as needed. It drops the
// decoded instructions of every page it writes to.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for len(b) > 0 {
		p := m.page(addr)
		p.dec = nil
		off := addr & (pageSize - 1)
		n := copy(p.data[off:], b)
		b = b[n:]
		addr += uint32(n)
	}
}

// ReadWord reads a 32-bit little-endian word; addr must be 4-aligned.
func (m *Memory) ReadWord(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, fmt.Errorf("cpu: unaligned word read at %#x", addr)
	}
	p := m.page(addr)
	off := addr & (pageSize - 1)
	return binary.LittleEndian.Uint32(p.data[off : off+4]), nil
}

// WriteWord writes a 32-bit word; addr must be 4-aligned.
func (m *Memory) WriteWord(addr uint32, v uint32) error {
	if addr&3 != 0 {
		return fmt.Errorf("cpu: unaligned word write at %#x", addr)
	}
	p := m.page(addr)
	off := addr & (pageSize - 1)
	binary.LittleEndian.PutUint32(p.data[off:off+4], v)
	p.invalidate(off)
	return nil
}

// ReadHalf reads a 16-bit little-endian halfword; addr must be 2-aligned.
func (m *Memory) ReadHalf(addr uint32) (uint16, error) {
	if addr&1 != 0 {
		return 0, fmt.Errorf("cpu: unaligned half read at %#x", addr)
	}
	p := m.page(addr)
	off := addr & (pageSize - 1)
	return binary.LittleEndian.Uint16(p.data[off : off+2]), nil
}

// WriteHalf writes a 16-bit halfword; addr must be 2-aligned.
func (m *Memory) WriteHalf(addr uint32, v uint16) error {
	if addr&1 != 0 {
		return fmt.Errorf("cpu: unaligned half write at %#x", addr)
	}
	p := m.page(addr)
	off := addr & (pageSize - 1)
	binary.LittleEndian.PutUint16(p.data[off:off+2], v)
	p.invalidate(off)
	return nil
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint32) byte {
	return m.page(addr).data[addr&(pageSize-1)]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v byte) {
	p := m.page(addr)
	off := addr & (pageSize - 1)
	p.data[off] = v
	p.invalidate(off)
}
