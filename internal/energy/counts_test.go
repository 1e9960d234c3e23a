package energy

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// countsStream returns n words of a traffic mix: each word holds the bus,
// steps a sequential address or jumps to a random one, with weights taken
// from the three 2-bit fields of mix (all zero means an even split).
// Words carry bits above any width, so the accumulator's masking is
// exercised too.
func countsStream(rng *rand.Rand, mix uint8, n int) []uint64 {
	wHold, wSeq, wRand := int(mix&3), int(mix>>2&3), int(mix>>4&3)
	if wHold+wSeq+wRand == 0 {
		wHold, wSeq, wRand = 1, 1, 1
	}
	words := make([]uint64, n)
	w := rng.Uint64()
	for i := range words {
		switch r := rng.Intn(wHold + wSeq + wRand); {
		case r < wHold:
		case r < wHold+wSeq:
			w += 4
		default:
			w = rng.Uint64()
		}
		words[i] = w
	}
	return words
}

// refCounts is the O(s²)-per-transition definition of the counts: T_i
// and, for i < j, P_ij = Σ (+1 opposite, −1 same) over the transitions
// in which both wires switch.
type refCounts struct {
	toggles []uint64
	pairs   []int64 // i < j, row-major
}

func (r *refCounts) add(n int, prev, cur uint64) {
	diff := (prev ^ cur) & mask(n)
	for i := 0; i < n; i++ {
		if diff>>uint(i)&1 == 0 {
			continue
		}
		r.toggles[i]++
		for j := i + 1; j < n; j++ {
			if diff>>uint(j)&1 == 0 {
				continue
			}
			k := i*n - i*(i+1)/2 + j - i - 1 // (i, j) in the row-major triangle
			if (cur>>uint(i)^cur>>uint(j))&1 != 0 {
				r.pairs[k]++
			} else {
				r.pairs[k]--
			}
		}
	}
}

// exactSum accumulates float64 terms without rounding (256-bit mantissa;
// the energies here span a few decades, so every partial sum is exact).
type exactSum struct {
	sum  [3]*big.Float
	term *big.Float
}

func newExactSum() exactSum {
	s := exactSum{term: new(big.Float).SetPrec(256)}
	for k := range s.sum {
		s.sum[k] = new(big.Float).SetPrec(256)
	}
	return s
}

func (s exactSum) add(le LineEnergy) {
	for k, x := range [3]float64{le.Self, le.CoupAdj, le.CoupNonAdj} {
		if x != 0 {
			s.sum[k].Add(s.sum[k], s.term.SetFloat64(x))
		}
	}
}

func (s exactSum) float(k int) float64 {
	f, _ := s.sum[k].Float64()
	return f
}

// FuzzPairCounts drives one word stream through an Accumulator in random
// splits (replayScalar) with no memo, a 2^1 memo and the default one. The
// counts must equal refCounts exactly on every route, whichever way each
// transition took, and the memo routes' energies must equal the memo-less
// route's by Float64bits. Every line's energy and the total must match,
// per component, a 256-bit sum of Model.Transition to 1e-13 relative. Where a component
// cancels to (nearly) zero, the bound is relative to its all-quiet scale
// ½Vdd²·T_i·Σc instead: the per-transition kernel leaves rounding residue
// there that the counts do not. The stream then rides as bus 0 of the
// K > 1 route, checkMultiRoute.
func FuzzPairCounts(f *testing.F) {
	for i, w := range []uint8{1, 2, 7, 8, 31, 33, 62, 64} {
		f.Add(w-1, uint8(0x15*i), int64(i), uint16(600+450*i))
	}
	f.Add(uint8(31), uint8(0x30), int64(99), uint16(4000)) // random only
	f.Add(uint8(32), uint8(0x04), int64(98), uint16(4000)) // sequential only
	models := map[int]*Model{}
	f.Fuzz(func(t *testing.T, width, mix uint8, seed int64, length uint16) {
		n := 1 + int(width)%64
		m := models[n]
		if m == nil {
			m = memoTestModel(t, n)
			models[n] = m
		}
		rng := rand.New(rand.NewSource(seed))
		words := countsStream(rng, mix, int(length)%3000)

		ref := refCounts{toggles: make([]uint64, n), pairs: make([]int64, n*(n-1)/2)}
		lines := make([]exactSum, n)
		for i := range lines {
			lines[i] = newExactSum()
		}
		total := newExactSum()
		out := make([]LineEnergy, n)
		for k := 1; k < len(words); k++ {
			ref.add(n, words[k-1], words[k])
			if _, err := m.Transition(words[k-1], words[k], out); err != nil {
				t.Fatal(err)
			}
			for d := (words[k-1] ^ words[k]) & mask(n); d != 0; d &= d - 1 {
				i := bits.TrailingZeros64(d)
				lines[i].add(out[i])
				total.add(out[i])
			}
		}

		// The K = 1 routes: memo-less, then through a 2^1 table (constant
		// evictions) and the default one. Each takes its own random split.
		var acc *Accumulator
		for _, memo := range []int{-1, 1, 0} {
			got := replayScalar(t, m, rng, memo, words)
			st := got.State()
			for i := range ref.toggles {
				if st.Toggles[i] != ref.toggles[i] {
					t.Fatalf("width %d, memo %d: T_%d = %d, reference %d", n, memo, i, st.Toggles[i], ref.toggles[i])
				}
			}
			for k := range ref.pairs {
				if st.Pairs[k] != ref.pairs[k] {
					t.Fatalf("width %d, memo %d: pair %d = %d, reference %d", n, memo, k, st.Pairs[k], ref.pairs[k])
				}
			}
			if acc == nil {
				acc = got
				continue
			}
			for i := 0; i < n; i++ {
				if !sameLine(got.Line(i), acc.Line(i)) {
					t.Fatalf("width %d, memo %d line %d: %+v, memo-less %+v", n, memo, i, got.Line(i), acc.Line(i))
				}
			}
			if !sameLine(got.Total(), acc.Total()) {
				t.Fatalf("width %d, memo %d total: %+v, memo-less %+v", n, memo, got.Total(), acc.Total())
			}
		}

		const tol = 1e-13
		half := 0.5 * m.vdd2
		check := func(what string, got LineEnergy, want exactSum, scale [3]float64) {
			t.Helper()
			for k, g := range [3]float64{got.Self, got.CoupAdj, got.CoupNonAdj} {
				w := want.float(k)
				if math.Abs(g-w) > tol*math.Max(math.Abs(w), scale[k]) {
					t.Fatalf("width %d: %s component %d = %g, exact sum of Transition %g (scale %g)", n, what, k, g, w, scale[k])
				}
			}
		}
		for i := 0; i < n; i++ {
			ti := float64(ref.toggles[i])
			adj := 0.0
			if i > 0 {
				adj += m.coup[i][i-1]
			}
			if i < n-1 {
				adj += m.coup[i][i+1]
			}
			scale := [3]float64{0, half * ti * adj, half * ti * (m.rowSum[i] - adj)}
			check(fmt.Sprintf("line %d", i), acc.Line(i), lines[i], scale)
		}
		var scale [3]float64
		for i := 0; i < n; i++ {
			scale[1] += half * float64(ref.toggles[i]) * m.rowSum[i]
		}
		scale[2] = scale[1]
		check("total", acc.Total(), total, scale)
		if want, got := uint64(len(words)), acc.State().Cycles; got < want {
			t.Fatalf("width %d: %d cycles for %d words", n, got, want)
		}
		checkMultiRoute(t, m, rng, mix, words)
	})
}

// replayScalar steps words through an Accumulator with a memo of
// 2^memo keys (0 the default, negative none) in random chunks split
// across one-word and longer StepBatch calls, mid-window reads (which
// drain the memo and fold a partial block) and State/SetState hand-offs
// to a fresh accumulator with the same memo, and returns the last
// accumulator.
func replayScalar(t *testing.T, m *Model, rng *rand.Rand, memo int, words []uint64) *Accumulator {
	t.Helper()
	fresh := func() *Accumulator {
		a := NewAccumulator(m)
		if memo >= 0 {
			if err := a.EnableMemo(memo); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
	acc := fresh()
	for rest := words; len(rest) > 0; {
		chunk := rest[:min(len(rest), 1+rng.Intn(200))]
		rest = rest[len(chunk):]
		switch rng.Intn(5) {
		case 0:
			for _, w := range chunk {
				step(acc, w)
			}
		case 1:
			acc.StepBatch(chunk)
		case 2:
			acc.StepBatch(chunk)
			_ = acc.Total()
		default:
			acc.StepBatch(chunk)
			next := fresh()
			if err := next.SetState(acc.State()); err != nil {
				t.Fatal(err)
			}
			acc = next
		}
	}
	return acc
}

// checkMultiRoute drives K ∈ {2, 4} streams (words as bus 0, the mix for
// the rest) through a MultiAccumulator at memo sizes 2^1, the default and
// off, in random lockstep chunks with mid-window drains and BusState/
// SetBusState hand-offs to a fresh accumulator. Every bus's counts must
// equal a scalar Accumulator's over its stream exactly, and its BusLines
// must match the scalar Lines by Float64bits. With bit 6 of mix set,
// every bus also carries a burst that repeats two narrow keys 2^16 times
// each, stepped as one chunk with no drain inside it, so each key's
// count passes the uint16 limit and the overflow drain runs.
func checkMultiRoute(t *testing.T, m *Model, rng *rand.Rand, mix uint8, words []uint64) {
	t.Helper()
	n := m.n
	cols := make([][]uint64, 2<<rng.Intn(2))
	cols[0] = words
	for k := 1; k < len(cols); k++ {
		cols[k] = countsStream(rng, mix, len(words))
	}
	at, burstLen := -1, 0
	if mix&0x40 != 0 {
		at, burstLen = rng.Intn(len(words)+1), 1<<17
		a := rng.Uint64()
		// One or two switching lines: a narrow key, counted in the memo.
		b := a ^ (1<<uint(rng.Intn(n)) | 1<<uint(rng.Intn(n)))
		burst := make([]uint64, burstLen)
		for i := range burst {
			burst[i] = a
			if i&1 != 0 {
				burst[i] = b
			}
		}
		for k, col := range cols {
			cols[k] = append(append(append([]uint64(nil), col[:at]...), burst...), col[at:]...)
		}
	}
	rows := len(cols[0])
	got, want := make([]LineEnergy, n), make([]LineEnergy, n)
	check := func(memo int, multi *MultiAccumulator, scalars []*Accumulator) {
		t.Helper()
		multi.Drain()
		for k, sc := range scalars {
			ms, ss := multi.BusState(k), sc.State()
			for i := range ss.Toggles {
				if ms.Toggles[i] != ss.Toggles[i] {
					t.Fatalf("width %d, K %d, memo %d, bus %d: T_%d = %d, scalar %d", n, len(cols), memo, k, i, ms.Toggles[i], ss.Toggles[i])
				}
			}
			for i := range ss.Pairs {
				if ms.Pairs[i] != ss.Pairs[i] {
					t.Fatalf("width %d, K %d, memo %d, bus %d: pair %d = %d, scalar %d", n, len(cols), memo, k, i, ms.Pairs[i], ss.Pairs[i])
				}
			}
			if ms.Prev != ss.Prev || ms.First != ss.First || ms.Cycles != ss.Cycles {
				t.Fatalf("width %d, K %d, memo %d, bus %d: state %+v, scalar %+v", n, len(cols), memo, k, ms, ss)
			}
			gt, wt := multi.BusLines(k, got), sc.Lines(want)
			for i := range want {
				if !sameLine(got[i], want[i]) {
					t.Fatalf("width %d, K %d, memo %d, bus %d line %d: %+v, scalar %+v", n, len(cols), memo, k, i, got[i], want[i])
				}
			}
			if !sameLine(gt, wt) {
				t.Fatalf("width %d, K %d, memo %d, bus %d total: %+v, scalar %+v", n, len(cols), memo, k, gt, wt)
			}
		}
	}
	for _, memo := range []int{1, 0, -1} {
		fresh := func() *MultiAccumulator {
			a, err := NewMultiAccumulator(m, len(cols))
			if err != nil {
				t.Fatal(err)
			}
			if memo >= 0 {
				if err := a.EnableMemo(memo); err != nil {
					t.Fatal(err)
				}
			}
			return a
		}
		multi := fresh()
		scalars := make([]*Accumulator, len(cols))
		for k := range scalars {
			scalars[k] = NewAccumulator(m)
		}
		for r := 0; r < rows; {
			c := min(rows-r, 1+rng.Intn(4096))
			if r == at {
				c = burstLen
			} else if r < at {
				c = min(c, at-r)
			}
			for k, col := range cols {
				multi.StepBus(k, col[r:r+c])
				scalars[k].StepBatch(col[r : r+c])
			}
			multi.AddCycles(uint64(c))
			r += c
			switch rng.Intn(4) {
			case 0:
				check(memo, multi, scalars)
			case 1:
				multi.Drain()
				next := fresh()
				for k := range cols {
					if err := next.SetBusState(k, multi.BusState(k)); err != nil {
						t.Fatal(err)
					}
				}
				multi = next
			}
		}
		check(memo, multi, scalars)
	}
}

// TestPairCountsRoutesAgree feeds the same transitions, each repeated one
// to three times, through every route into the counts: addCount once per
// repeat (the memo-less narrow route), the mask block alone (folded full
// and, at random reads, part-full), and addCount with the repetition
// count (a memo slot's drain).
// The integers must be identical.
func TestPairCountsRoutesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 5, 33, 64} {
		narrow, wide, counted := newPairCounts(n), newPairCounts(n), newPairCounts(n)
		prev := uint64(0)
		for k := 0; k < 1000; k++ {
			cur := rng.Uint64() & mask(n)
			if k%3 == 0 {
				cur = prev ^ 1<<uint(rng.Intn(n))
			}
			diff := prev ^ cur
			if diff == 0 {
				continue
			}
			reps := 1 + k%3
			for r := 0; r < reps; r++ {
				narrow.addCount(diff, cur&diff, 1)
				wide.addWide(diff, cur&diff)
			}
			if rng.Intn(30) == 0 {
				// A read folds the block at whatever fill it has: either
				// side of foldDirect.
				wide.fold()
			}
			counted.addCount(diff, cur&diff, uint64(reps))
			prev = cur
		}
		nt, np := narrow.export()
		for name, c := range map[string]*pairCounts{"wide": &wide, "addCount": &counted} {
			c.fold()
			ct, cp := c.export()
			for i := range nt {
				if nt[i] != ct[i] {
					t.Fatalf("width %d: T_%d narrow %d, %s %d", n, i, nt[i], name, ct[i])
				}
			}
			for k := range np {
				if np[k] != cp[k] {
					t.Fatalf("width %d: pair %d narrow %d, %s %d", n, k, np[k], name, cp[k])
				}
			}
		}
	}
}
