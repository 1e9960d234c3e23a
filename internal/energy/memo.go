// Transition-key memo for the multi-bus accumulator. A bus transition's
// contribution to the pair-pattern counts depends only on the pair
// (diff, rising): the switching mask and the subset of switching lines
// that rise. Address streams are extremely repetitive — an IA bus mostly
// increments, a DA bus cycles through a working set — so the multi-bus
// accumulator (multi.go) interns each key in a small hash table shared by
// its buses and counts transitions per (slot, bus) with one uint16
// increment. The table holds keys only: a drained slot adds its count
// copies of the key to the bus's counts (counts.go), so the window stays
// exact integers whatever the eviction schedule. The scalar Accumulator
// counts every transition directly and has no memo.
package energy

import "fmt"

// DefaultMemoSizeLog2 sizes the transition memo at 2^14 = 16384 keys —
// large enough that SPEC-style address windows hit in the high 90s
// percent, small enough (256 KiB of keys) to stay cache-resident per
// multi-bus simulator.
const DefaultMemoSizeLog2 = 14

// maxMemoSizeLog2 caps the table at 2^22 entries so a typo'd size cannot
// silently allocate gigabytes.
const maxMemoSizeLog2 = 22

// memoKey is one slot: a transition's switching mask and rising subset.
// diff == 0 marks an unused slot, because a no-op transition is filtered
// out before lookup.
type memoKey struct {
	diff, rising uint64
}

// Memo is a two-way hash table of transition keys. It is not safe for
// concurrent use; give each goroutine's MultiAccumulator its own.
type Memo struct {
	mask uint64
	keys []memoKey

	hits, misses uint64
	used         uint64
}

// MemoStats are the cache observability counters.
type MemoStats struct {
	// Hits and Misses count probe outcomes; a miss installs (or
	// replaces) a key.
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

// newMemo builds a transition memo of 2^sizeLog2 keys. sizeLog2 == 0
// selects DefaultMemoSizeLog2.
func newMemo(sizeLog2 int) (*Memo, error) {
	sizeLog2, err := memoSizeLog2(sizeLog2)
	if err != nil {
		return nil, err
	}
	size := uint64(1) << uint(sizeLog2)
	return &Memo{mask: size - 1, keys: make([]memoKey, size)}, nil
}

// Stats returns the hit/miss/occupancy counters.
func (c *Memo) Stats() MemoStats {
	return MemoStats{Hits: c.hits, Misses: c.misses, Entries: c.used, Capacity: uint64(len(c.keys))}
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

// installSlot is the miss path behind the multi-bus accumulator's inlined
// probe. The table is two-way pseudo-associative: a key probes a primary
// slot (low hash bits) and an alternate slot (high hash bits), so two
// keys colliding on one index do not evict each other every round trip
// through a working set. installSlot picks the victim slot for
// (diff, rising), runs onEvict while the displaced key is still in place
// (the accumulator drains the slot's pending counts there), installs the
// key and returns the slot index. h must be memoHash(diff, rising).
func (c *Memo) installSlot(diff, rising, h uint64, onEvict func(int)) int {
	c.misses++
	idx := int(h & c.mask)
	if ai := int((h >> 32) & c.mask); c.keys[idx].diff != 0 && c.keys[ai].diff == 0 {
		idx = ai
	}
	if c.keys[idx].diff == 0 {
		c.used++
	} else {
		onEvict(idx)
	}
	c.keys[idx] = memoKey{diff: diff, rising: rising}
	return idx
}
