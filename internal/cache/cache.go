// Package cache implements the set-associative cache hierarchy of the
// paper's simulated memory system (Sec. 5.1): split 16 KB 4-way 32 B-block
// write-through L1 instruction and data caches over a unified 256 KB 4-way
// 64 B-block write-back L2. The hierarchy is functional (hit/miss state and
// statistics, no timing): the monitored processor-to-L1 address buses do
// not depend on cache latency, and the L1-to-L2 bus study (an extension
// experiment) needs only the miss address stream.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	// Name labels the cache in reports ("I-L1", ...).
	Name string
	// Size is the capacity in bytes.
	Size int
	// Assoc is the set associativity.
	Assoc int
	// BlockSize is the line size in bytes (a power of two).
	BlockSize int
	// WriteBack selects write-back with write-allocate; false selects
	// write-through with no-write-allocate (the paper's L1 policy).
	WriteBack bool
}

// Validate checks the configuration's invariants.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.Assoc <= 0 || c.BlockSize <= 0:
		return fmt.Errorf("cache: %s: non-positive parameter", c.Name)
	case c.BlockSize&(c.BlockSize-1) != 0:
		return fmt.Errorf("cache: %s: block size %d not a power of two", c.Name, c.BlockSize)
	case c.Size%(c.Assoc*c.BlockSize) != 0:
		return fmt.Errorf("cache: %s: size %d not divisible by assoc*block", c.Name, c.Size)
	}
	sets := c.Size / (c.Assoc * c.BlockSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats accumulates per-cache access counts.
type Stats struct {
	Reads, ReadMisses   uint64
	Writes, WriteMisses uint64
	Writebacks          uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

type line struct {
	valid bool
	dirty bool
	tag   uint32
	// lru is a per-set use counter: higher is more recent.
	lru uint64
}

// Cache is one level of set-associative cache with true-LRU replacement.
type Cache struct {
	cfg      Config
	sets     int
	setShift uint
	setMask  uint32
	lines    []line // sets x assoc
	useClock uint64
	stats    Stats
	// next is the backing level; nil means memory (infinite, always
	// hits).
	next *Cache
	// MissHook, when non-nil, observes every block address sent to the
	// next level (the L1→L2 address bus).
	MissHook func(blockAddr uint32, write bool)
}

// New builds a cache over the optional next level.
func New(cfg Config, next *Cache) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Size / (cfg.Assoc * cfg.BlockSize)
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		setShift: uint(bits.TrailingZeros32(uint32(cfg.BlockSize))),
		setMask:  uint32(sets - 1),
		lines:    make([]line, sets*cfg.Assoc),
		next:     next,
	}, nil
}

// Stats returns a copy of the access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// setIndex and tagOf split an address into its set index and tag.
func (c *Cache) setIndex(addr uint32) uint32 { return (addr >> c.setShift) & c.setMask }

func (c *Cache) tagOf(addr uint32) uint32 {
	return addr >> c.setShift >> uint(bits.TrailingZeros32(uint32(c.sets)))
}

// set returns the line slice of addr's set.
func (c *Cache) set(addr uint32) []line {
	base := int(c.setIndex(addr)) * c.cfg.Assoc
	return c.lines[base : base+c.cfg.Assoc]
}

// lookup finds addr's line within its set; returns nil on miss.
func (c *Cache) lookup(addr uint32) *line {
	set := c.set(addr)
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// victim picks the LRU line of addr's set.
func (c *Cache) victim(addr uint32) *line {
	set := c.set(addr)
	v := &set[0]
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].lru < v.lru {
			v = &set[i]
		}
	}
	return v
}

func (c *Cache) touch(l *line) {
	c.useClock++
	l.lru = c.useClock
}

// blockAddr masks addr to its block base.
func (c *Cache) blockAddr(addr uint32) uint32 {
	return addr &^ (uint32(c.cfg.BlockSize) - 1)
}

// Read performs a read access; it returns true on hit.
func (c *Cache) Read(addr uint32) bool {
	c.stats.Reads++
	if l := c.lookup(addr); l != nil {
		c.touch(l)
		return true
	}
	c.stats.ReadMisses++
	c.fill(addr)
	return false
}

// Write performs a write access; it returns true on hit.
func (c *Cache) Write(addr uint32) bool {
	c.stats.Writes++
	if l := c.lookup(addr); l != nil {
		c.touch(l)
		if c.cfg.WriteBack {
			l.dirty = true
		} else {
			// Write-through: propagate the word's block address.
			c.forward(addr, true)
		}
		return true
	}
	c.stats.WriteMisses++
	if c.cfg.WriteBack {
		// Write-allocate.
		l := c.fill(addr)
		l.dirty = true
	} else {
		// No-write-allocate: just send the write on.
		c.forward(addr, true)
	}
	return false
}

// fill allocates addr's block, evicting (and writing back) as needed, and
// fetches the block from the next level.
func (c *Cache) fill(addr uint32) *line {
	v := c.victim(addr)
	if v.valid && v.dirty {
		c.stats.Writebacks++
		victimAddr := (v.tag<<uint(bits.TrailingZeros32(uint32(c.sets))) | c.setIndex(addr)) << c.setShift
		c.forward(victimAddr, true)
	}
	c.forward(addr, false) // block fetch from next level
	v.valid = true
	v.dirty = false
	v.tag = c.tagOf(addr)
	c.touch(v)
	return v
}

// forward sends an access to the next level (read fetch or write/writeback)
// and notifies the MissHook.
func (c *Cache) forward(addr uint32, write bool) {
	ba := c.blockAddr(addr)
	if c.MissHook != nil {
		c.MissHook(ba, write)
	}
	if c.next == nil {
		return
	}
	if write {
		c.next.Write(ba)
	} else {
		c.next.Read(ba)
	}
}

// Hierarchy is the paper's two-level memory system.
type Hierarchy struct {
	IL1, DL1, L2 *Cache
}

// PaperConfig returns the Sec. 5.1 configuration: split 16 KB 4-way 32 B
// write-through L1s and a unified 256 KB 4-way 64 B write-back L2.
func PaperConfig() (il1, dl1, l2 Config) {
	il1 = Config{Name: "I-L1", Size: 16 << 10, Assoc: 4, BlockSize: 32}
	dl1 = Config{Name: "D-L1", Size: 16 << 10, Assoc: 4, BlockSize: 32}
	l2 = Config{Name: "L2", Size: 256 << 10, Assoc: 4, BlockSize: 64, WriteBack: true}
	return il1, dl1, l2
}

// NewPaperHierarchy builds the paper's hierarchy.
func NewPaperHierarchy() (*Hierarchy, error) {
	il1Cfg, dl1Cfg, l2Cfg := PaperConfig()
	l2, err := New(l2Cfg, nil)
	if err != nil {
		return nil, err
	}
	il1, err := New(il1Cfg, l2)
	if err != nil {
		return nil, err
	}
	dl1, err := New(dl1Cfg, l2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{IL1: il1, DL1: dl1, L2: l2}, nil
}

// Fetch performs an instruction fetch through the hierarchy.
func (h *Hierarchy) Fetch(addr uint32) { h.IL1.Read(addr) }

// Load performs a data load.
func (h *Hierarchy) Load(addr uint32) { h.DL1.Read(addr) }

// Store performs a data store.
func (h *Hierarchy) Store(addr uint32) { h.DL1.Write(addr) }
