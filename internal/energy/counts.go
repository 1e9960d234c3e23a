// Pair-pattern counts. The per-line energy of Sec. 3.1-3.2 is linear in
// how often each wire switches and how often each pair of wires switches
// together, in the same or in opposite directions. Over a window of
// transitions, wire i dissipates
//
//	E_i = ½Vdd²·[Cself_i·T_i + Σ_j c_ij·(T_i + P_ij)]
//
// where T_i counts wire i's transitions and P_ij = Σ(2·opposite − both) =
// opposite − same counts, over the transitions in which wires i and j both
// switch, +1 when they move apart and −1 when they move together. (Per
// transition the coupling term is c_ij·(1 − v_i·v_j) with v in {−1, 0, +1};
// summed over the window, Σ 1 = T_i and Σ −v_i·v_j = P_ij.) The window's
// energy is therefore fixed exactly by integers, and floats appear only
// when the window is read.
//
// Two routes feed the counts. A narrow transition (at most narrowMax
// switching lines) goes straight into T and P: s increments and s(s−1)/2
// pair updates. A wider one is parked in a 64-slot block (its switching
// mask and rising subset, two stores). A full block is transposed into
// per-wire 64-bit columns — bit k of tog[i] (rise[i]) set when wire i
// switched (rose) in the block's k-th transition — and folded into T and
// P with popcounts: O(W²) word operations per 64 transitions instead of
// O(s²) per transition. Both routes produce the same integers, so where
// the split sits changes only the speed.
package energy

import "math/bits"

// narrowMax is the widest transition counted straight into the pair
// counters; wider transitions go through the mask block. A block costs
// two 64x64 transposes and a W(W−1)/2-pair fold per 64 transitions, on a
// 33-wire bus as much as a few tens of pair updates per transition; a
// transition of at most 4 lines needs at most 6. The sequential address
// streams that dominate IA traffic switch one to three lines per word.
const narrowMax = 4

// pairCounts holds one window's counts for a width-n bus.
type pairCounts struct {
	n int
	// toggles[i] is T_i. pairs[i<<6|j], for i < j only, is P_ij: a
	// fixed 64-wire stride, so indexing needs no bounds check.
	toggles [64]uint64
	pairs   *[64 * 64]int64
	// tog[k] and rise[k] are the switching mask and rising subset of
	// the block's k-th pending wide transition; slots is how many are
	// used. fold transposes them into per-wire columns.
	tog, rise [64]uint64
	slots     uint
}

func newPairCounts(n int) pairCounts {
	return pairCounts{n: n, pairs: new([64 * 64]int64)}
}

// addNarrow counts a transition straight into T and P: diff is its
// non-zero, width-masked switching mask and rising = cur&diff the lines
// that rise.
func (c *pairCounts) addNarrow(diff, rising uint64) {
	for d := diff; ; {
		i := bits.TrailingZeros64(d) & 63
		c.toggles[i]++
		if d &= d - 1; d == 0 {
			return
		}
		ri := rising >> uint(i) & 1
		for e := d; e != 0; e &= e - 1 {
			j := bits.TrailingZeros64(e)
			// +1 when the pair moves in opposite directions, -1 when it
			// moves together.
			c.pairs[(i<<6|j)&(64*64-1)] += int64((ri^rising>>uint(j)&1)<<1) - 1
		}
	}
}

// addCount counts n repetitions of a transition straight into T and P,
// as n addNarrow calls would: the multi-bus accumulator's drain of one
// memo slot (multi.go). For each switching wire i, the switching wires
// j > i that move opposite to it (their rising bit differs) add +n to
// P_ij and the ones that move with it add −n.
func (c *pairCounts) addCount(diff, rising, n uint64) {
	v := int64(n)
	for d := diff; d != 0; {
		i := bits.TrailingZeros64(d) & 63
		c.toggles[i] += n
		d &= d - 1
		row := (*[64]int64)(c.pairs[i<<6 : i<<6+64])
		opp := (rising ^ -(rising >> uint(i) & 1)) & d
		for e := opp; e != 0; e &= e - 1 {
			row[bits.TrailingZeros64(e)&63] += v
		}
		for e := d &^ opp; e != 0; e &= e - 1 {
			row[bits.TrailingZeros64(e)&63] -= v
		}
	}
}

// addWide parks a transition in the next block slot, folding the block
// when it fills.
func (c *pairCounts) addWide(diff, rising uint64) {
	c.tog[c.slots&63], c.rise[c.slots&63] = diff, rising
	if c.slots++; c.slots == 64 {
		c.fold()
	}
}

// transpose64 transposes a 64x64 bit matrix in place: bit j of row i
// moves to bit i of row j. Each round swaps the off-diagonal blocks of
// every 2j x 2j block (Hacker's Delight, 7-3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j&63]) & m
			a[k+j&63] ^= t
			a[k] ^= t << uint(j)
		}
	}
}

// fold moves the pending block into T and P and empties it. The block's
// rows (one per transition) are transposed to per-wire columns. For a
// pair, both = tog_i & tog_j marks the slots where both wires switched
// and rise_i ^ rise_j those where they moved apart, so the block adds
// 2·popcount(both & (rise_i ^ rise_j)) − popcount(both) to P_ij.
func (c *pairCounts) fold() {
	if c.slots == 0 {
		return
	}
	tog, rise := c.tog, c.rise
	transpose64(&tog)
	transpose64(&rise)
	n := c.n
	for i := 0; i < n; i++ {
		ti, ri := tog[i], rise[i]
		if ti == 0 {
			continue
		}
		c.toggles[i] += uint64(bits.OnesCount64(ti))
		tj, rj, row := tog[i+1:n], rise[i+1:n], c.pairs[i<<6+i+1:i<<6+n]
		rj, row = rj[:len(tj)], row[:len(tj)]
		for j, t := range tj {
			both := ti & t
			row[j] += int64(2*bits.OnesCount64(both&(ri^rj[j])) - bits.OnesCount64(both))
		}
	}
	c.tog, c.rise = [64]uint64{}, [64]uint64{}
	c.slots = 0
}

// energy converts wire i's counts into its window energy. Call fold
// first. Every product is rounded on its own (the explicit float64
// conversions), so no compiler may fuse it into a multiply-add: a
// window's energy is the same float on every architecture. The ci
// workflow and scripts/verify.sh check the arm64 build for fused
// instructions in this function.
func (c *pairCounts) energy(m *Model, i int) LineEnergy {
	t := int64(c.toggles[i])
	if t == 0 {
		// No transition of wire i means no pair count either.
		return LineEnergy{}
	}
	n := c.n
	row := m.coup[i][:n]
	// Wire j's term is c_ij·(T_i + P_ij), with P_ij stored at [j][i] for
	// j < i and at [i][j] for j > i. Both sums run in ascending j: the
	// non-adjacent wires below i-1 and above i+1, the adjacent ones i-1
	// then i+1.
	var adj, non float64
	for j := 0; j < i-1; j++ {
		non += float64(row[j] * float64(t+c.pairs[(j<<6|i)&(64*64-1)]))
	}
	if i > 0 {
		adj += float64(row[i-1] * float64(t+c.pairs[((i-1)<<6|i)&(64*64-1)]))
	}
	if i+1 < n {
		adj += float64(row[i+1] * float64(t+c.pairs[(i<<6|(i+1))&(64*64-1)]))
	}
	for j := i + 2; j < n; j++ {
		non += float64(row[j] * float64(t+c.pairs[(i<<6|j)&(64*64-1)]))
	}
	half := 0.5 * m.vdd2
	return LineEnergy{
		Self:       float64(half * float64(m.selfCap[i]*float64(t))),
		CoupAdj:    float64(half * adj),
		CoupNonAdj: float64(half * non),
	}
}

// reset empties the counts and the block.
func (c *pairCounts) reset() {
	c.toggles = [64]uint64{}
	clear(c.pairs[:c.n<<6])
	c.tog, c.rise = [64]uint64{}, [64]uint64{}
	c.slots = 0
}

// export returns copies of T and of P's upper triangle in row-major
// order (length n(n−1)/2). Call fold first.
func (c *pairCounts) export() ([]uint64, []int64) {
	n := c.n
	toggles := append([]uint64(nil), c.toggles[:n]...)
	pairs := make([]int64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		pairs = append(pairs, c.pairs[i<<6+i+1:i<<6+n]...)
	}
	return toggles, pairs
}

// load overwrites the counts from export's form and empties the block.
func (c *pairCounts) load(toggles []uint64, pairs []int64) {
	c.reset()
	copy(c.toggles[:], toggles)
	n := c.n
	for i := 0; i < n; i++ {
		pairs = pairs[copy(c.pairs[i<<6+i+1:i<<6+n], pairs):]
	}
}
