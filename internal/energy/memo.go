// Transition-energy memoization. The per-line energies of a bus transition
// depend only on the pair (diff, rising): the switching mask and the subset
// of switching lines that rise (see transitionSparse). Address streams are
// extremely repetitive — an IA bus mostly increments, a DA bus cycles
// through a working set — so a small direct-mapped cache over that key
// converts the O(s^2) pairwise kernel into an O(s) sparse accumulate for
// the overwhelming majority of cycles. The multi-bus accumulator
// (multi.go) shares one memo across its buses; the scalar Accumulator
// counts pair patterns instead (counts.go) and has no memo.
package energy

import (
	"fmt"
	"math/bits"
)

// DefaultMemoSizeLog2 sizes the transition memo at 2^14 = 16384 entries —
// large enough that SPEC-style address windows hit in the high 90s percent,
// small enough (a few MB with typical switching densities) to stay resident
// per multi-bus simulator.
const DefaultMemoSizeLog2 = 14

// maxMemoSizeLog2 caps the table at 2^22 entries so a typo'd size cannot
// silently allocate gigabytes.
const maxMemoSizeLog2 = 22

// memoEntry is one direct-mapped slot: the key pair plus the sparse
// per-switching-line energies (ascending wire order, one per set bit of
// diff) and their bus-wide total. diff == 0 marks an unused slot, because a
// no-op transition is filtered out before lookup.
type memoEntry struct {
	diff, rising uint64
	total        LineEnergy
	lines        []LineEnergy
}

// memoKey mirrors the (diff, rising) key of the entry in the same slot.
// The parallel key array exists purely for probe locality: four keys share
// one cache line where the 64-byte entries take a line each, so the hit
// path of a probe touches a quarter of the cache footprint. installSlot
// keeps keys and table in sync; everything else treats the entry as
// authoritative.
type memoKey struct {
	diff, rising uint64
}

// Memo is a direct-mapped transition-energy cache over one Model. It is not
// safe for concurrent use; give each goroutine's MultiAccumulator its own.
type Memo struct {
	model *Model
	mask  uint64
	keys  []memoKey
	table []memoEntry

	hits, misses uint64
	used         uint64

	idx [64]int // scratch for miss-path index decoding
}

// MemoStats are the cache observability counters.
type MemoStats struct {
	// Hits and Misses count Lookup outcomes; a miss computes the kernel
	// and installs (or replaces) an entry.
	Hits, Misses uint64
	// Entries is the number of occupied slots, Capacity the table size.
	Entries, Capacity uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s MemoStats) HitRate() float64 {
	n := s.Hits + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// memoSizeLog2 resolves a requested memo size (0 selects
// DefaultMemoSizeLog2) and rejects one outside [2^1, 2^maxMemoSizeLog2].
func memoSizeLog2(sizeLog2 int) (int, error) {
	if sizeLog2 == 0 {
		sizeLog2 = DefaultMemoSizeLog2
	}
	if sizeLog2 < 1 || sizeLog2 > maxMemoSizeLog2 {
		return 0, fmt.Errorf("energy: memo size 2^%d outside [2^1, 2^%d]", sizeLog2, maxMemoSizeLog2)
	}
	return sizeLog2, nil
}

// NewMemo builds a transition memo of 2^sizeLog2 entries over the model.
// sizeLog2 == 0 selects DefaultMemoSizeLog2.
func NewMemo(m *Model, sizeLog2 int) (*Memo, error) {
	if m == nil {
		return nil, fmt.Errorf("energy: NewMemo over nil model")
	}
	sizeLog2, err := memoSizeLog2(sizeLog2)
	if err != nil {
		return nil, err
	}
	size := uint64(1) << uint(sizeLog2)
	return &Memo{
		model: m,
		mask:  size - 1,
		keys:  make([]memoKey, size),
		table: make([]memoEntry, size),
	}, nil
}

// Model returns the model the memo caches for.
func (c *Memo) Model() *Model { return c.model }

// Stats returns the hit/miss/occupancy counters.
func (c *Memo) Stats() MemoStats {
	return MemoStats{Hits: c.hits, Misses: c.misses, Entries: c.used, Capacity: uint64(len(c.table))}
}

// memoHash mixes the (diff, rising) key into a table index. rising is a
// subset of diff, so the pair is highly correlated; a multiply-xorshift of
// each half keeps sequential address patterns from clustering in one way.
func memoHash(diff, rising uint64) uint64 {
	h := diff*0x9e3779b97f4a7c15 ^ rising*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return h
}

// lookup returns the cache entry for a non-zero switching mask diff and its
// rising subset, computing and installing it on a miss. The table is
// two-way pseudo-associative: a key probes a primary slot (low hash bits)
// and an alternate slot (high hash bits), so two keys colliding on one
// index no longer evict each other every round trip through a working
// set. The returned entry is valid until the next lookup.
//
//nanolint:hotpath probed once per switching transition; hits must not allocate
func (c *Memo) lookup(diff, rising uint64) *memoEntry {
	h := memoHash(diff, rising)
	pi := int(h & c.mask)
	if k := c.keys[pi]; k.diff == diff && k.rising == rising {
		c.hits++
		return &c.table[pi]
	}
	ai := int((h >> 32) & c.mask)
	if k := c.keys[ai]; k.diff == diff && k.rising == rising {
		c.hits++
		return &c.table[ai]
	}
	return &c.table[c.installSlot(diff, rising, h, nil)]
}

// lookupSlot is lookup for aggregating callers: it returns the table
// index of the entry for (diff, rising), installing it on a miss with the
// same probe and eviction policy as lookup, so a mixed workload of both
// entry points sees one coherent cache. When installing would evict a
// live entry, onEvict runs first with the old entry still in place — the
// multi-bus accumulator drains its per-slot transition counts there
// before the slot's energies change. The index stays valid (same entry,
// same energies) until a lookup or lookupSlot misses into it.
//
//nanolint:hotpath probed once per switching transition on the multi-bus path; hits must not allocate
func (c *Memo) lookupSlot(diff, rising uint64, onEvict func(int)) int {
	h := memoHash(diff, rising)
	pi := int(h & c.mask)
	if k := c.keys[pi]; k.diff == diff && k.rising == rising {
		c.hits++
		return pi
	}
	ai := int((h >> 32) & c.mask)
	if k := c.keys[ai]; k.diff == diff && k.rising == rising {
		c.hits++
		return ai
	}
	return c.installSlot(diff, rising, h, onEvict)
}

// installSlot is the shared miss path behind lookupSlot and the multi-bus
// accumulator's inlined probe: pick the victim slot for (diff, rising)
// under the standard eviction policy, run onEvict if a live entry is
// displaced, compute and install the transition energies, and return the
// slot index. h must be memoHash(diff, rising).
func (c *Memo) installSlot(diff, rising, h uint64, onEvict func(int)) int {
	c.misses++
	idx := int(h & c.mask)
	if ai := int((h >> 32) & c.mask); c.keys[idx].diff != 0 && c.keys[ai].diff == 0 {
		idx = ai
	}
	e := &c.table[idx]
	if e.diff == 0 {
		c.used++
	} else if onEvict != nil {
		onEvict(idx)
	}
	s := bits.OnesCount64(diff)
	if cap(e.lines) < s {
		e.lines = make([]LineEnergy, s)
	}
	e.lines = e.lines[:s]
	e.total = c.model.transitionSparse(diff, rising, c.idx[:s], e.lines)
	e.diff, e.rising = diff, rising
	c.keys[idx] = memoKey{diff: diff, rising: rising}
	return idx
}

// Transition is the memoized equivalent of Model.Transition: identical
// contract, bit-identical results (the miss path runs the same sparse
// kernel the model does, and hits replay its stored output).
func (c *Memo) Transition(prev, cur uint64, out []LineEnergy) (LineEnergy, error) {
	if len(out) != c.model.n {
		return LineEnergy{}, fmt.Errorf("energy: out length %d, want %d", len(out), c.model.n)
	}
	for i := range out {
		out[i] = LineEnergy{}
	}
	diff := (prev ^ cur) & mask(c.model.n)
	if diff == 0 {
		return LineEnergy{}, nil
	}
	e := c.lookup(diff, cur&diff)
	k := 0
	for d := diff; d != 0; d &= d - 1 {
		out[bits.TrailingZeros64(d)] = e.lines[k]
		k++
	}
	return e.total, nil
}
