// Transition-key memo. A bus transition's contribution to the pair-pattern
// counts depends only on the pair (diff, rising): the switching mask and
// the subset of switching lines that rise. Address streams are extremely
// repetitive — an IA bus mostly increments, a DA bus cycles through a
// working set — so the stepping loop (batch.go) interns each narrow key
// (at most memoMax switching lines) in a small hash table and counts
// transitions per (slot, bus) with one uint16 increment. A scalar
// Accumulator owns a one-bus table; a MultiAccumulator shares one table
// among its K buses, so a key one bus installs is a hit for the others.
// The table holds keys only: a drained slot adds its count copies of the
// key to the bus's counts (counts.go), so the window stays exact integers
// whatever the eviction schedule.
package energy

import "fmt"

// memoMax is the widest transition counted through the table; wider
// ones go straight to the bus's mask block (counts.go). Address traffic
// switches one to a few lines per word and repeats its keys, so a probe
// that ends in a uint16 increment is cheaper than counting it, and its
// branches follow the table, not the word. Data words switch many lines
// in patterns that seldom repeat: through the table they would miss and
// drain s(s−1)/2 pair updates per key, where the block folds them with
// popcounts. The cutoff was swept over the eight benchmarks' IA and DA
// windows (EXPERIMENTS.md, "One stepping loop").
const memoMax = 6

// DefaultMemoSizeLog2 sizes the transition memo at 2^10 = 1024 keys.
// Only narrow keys (at most memoMax lines) enter it, and on the
// benchmarks' windows larger tables hit barely more often (97.9% against
// 97.5% of DA probes) and run no faster, so it stays in L1 (16 KiB
// of keys, 2 KiB of counts per bus) and a session OPEN allocates little;
// the size was swept with memoMax (EXPERIMENTS.md, "One stepping loop").
const DefaultMemoSizeLog2 = 10

// maxMemoSizeLog2 caps the table at 2^22 entries so a typo'd size cannot
// silently allocate gigabytes.
const maxMemoSizeLog2 = 22

// overflowAt forces a per-slot drain just before a uint16 transition
// count would wrap (see Accumulator.stepWords).
const overflowAt = 0xfffe

// memoKey is one slot: a transition's switching mask and rising subset.
// diff == 0 marks an unused slot, because a no-op transition is filtered
// out before lookup.
type memoKey struct {
	diff, rising uint64
}

// Memo is a two-way hash table of transition keys and the pending
// transition counts of every bus stepped through it. It is not safe for
// concurrent use; give each goroutine's accumulator its own.
type Memo struct {
	mask uint64
	keys []memoKey

	hits, misses uint64
	used         uint64

	// wins[k] is bus k's count window, where drained counts land.
	// counts[k*len(keys)+slot] holds bus k's pending transitions through
	// slot (bus-major, so one bus's stepping touches a contiguous
	// len(keys)*2-byte window), touched the slots with any pending count
	// (insertion order) and marked the membership bitmap behind touched.
	// A count about to overflow drains its slot early, so counts are exact
	// at any interval length.
	wins    []*pairCounts
	counts  []uint16
	touched []int32
	marked  []bool
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

// newMemo builds a memo of 2^sizeLog2 keys (0 selects
// DefaultMemoSizeLog2, a size outside [2^1, 2^maxMemoSizeLog2] is an
// error) that counts for the given bus windows.
func newMemo(sizeLog2 int, wins []*pairCounts) (*Memo, error) {
	if sizeLog2 == 0 {
		sizeLog2 = DefaultMemoSizeLog2
	}
	if sizeLog2 < 1 || sizeLog2 > maxMemoSizeLog2 {
		return nil, fmt.Errorf("energy: memo size 2^%d outside [2^1, 2^%d]", sizeLog2, maxMemoSizeLog2)
	}
	size := 1 << uint(sizeLog2)
	return &Memo{
		mask:   uint64(size - 1),
		keys:   make([]memoKey, size),
		wins:   wins,
		counts: make([]uint16, size*len(wins)),
		marked: make([]bool, size),
	}, nil
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

// installSlot is the miss path behind the stepping loop's inlined probe.
// The table is two-way pseudo-associative: a key probes a primary slot
// (low hash bits) and an alternate slot (high hash bits), so two keys
// colliding on one index do not evict each other every round trip
// through a working set. installSlot picks the victim slot for
// (diff, rising), drains the displaced key's pending counts while it is
// still in place, installs the key and returns the slot index. h must be
// memoHash(diff, rising).
func (c *Memo) installSlot(diff, rising, h uint64) int {
	c.misses++
	idx := int(h & c.mask)
	if ai := int((h >> 32) & c.mask); c.keys[idx].diff != 0 && c.keys[ai].diff == 0 {
		idx = ai
	}
	if c.keys[idx].diff == 0 {
		c.used++
	} else {
		c.drainSlot(idx)
	}
	c.keys[idx] = memoKey{diff: diff, rising: rising}
	return idx
}

// drainSlot adds one slot's pending counts to the windows: for each bus
// with pending transitions through the slot, count copies of its key.
func (c *Memo) drainSlot(slot int) {
	key := c.keys[slot]
	size := len(c.keys)
	for k, w := range c.wins {
		if n := c.counts[k*size+slot]; n != 0 {
			c.counts[k*size+slot] = 0
			w.addCount(key.diff, key.rising, uint64(n))
		}
	}
	c.marked[slot] = false
}

// drain adds every pending (slot, bus) count to the windows. Every read
// of a window calls it first; it is idempotent until the next step.
//
// The loop nest is bus-outer, slot-inner: one bus's counts are a
// contiguous len(keys)*2-byte slab (L1/L2-resident) where the slot-outer
// order of drainSlot takes a cache miss per (slot, bus) pair — the count
// columns sit a full table apart.
func (c *Memo) drain() {
	if len(c.touched) == 0 {
		return
	}
	size := len(c.keys)
	for k, w := range c.wins {
		counts := c.counts[k*size : (k+1)*size]
		for _, s := range c.touched {
			// A zero count covers both untouched (this bus never hit the
			// slot) and already-drained slots (an eviction or overflow
			// drain zeroed every bus's count and unmarked the slot).
			if n := counts[s]; n != 0 {
				counts[s] = 0
				w.addCount(c.keys[s].diff, c.keys[s].rising, uint64(n))
			}
		}
	}
	for _, s := range c.touched {
		c.marked[s] = false
	}
	c.touched = c.touched[:0]
}
