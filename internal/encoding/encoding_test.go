package encoding

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// couplingCostRef is the coupling cost the OEBI and CBI mode decisions
// minimise: the sum over adjacent wire pairs below width of (vi - vj)^2,
// one pair at a time, where v is a wire's normalised transition
// direction. That is 4 for a pair toggling in opposite directions (the
// Miller case), 1 for a wire switching against a quiet neighbour, 0
// otherwise. The encoder tests check mode decisions against it, and
// FuzzModeCosts checks the mask-derived costs against it.
func couplingCostRef(prev, cur uint64, width int) int {
	cost := 0
	for i := 0; i < width-1; i++ {
		d := dir(prev, cur, i) - dir(prev, cur, i+1)
		cost += d * d
	}
	return cost
}

// roundTrip drives an encoder/decoder pair over a word sequence and checks
// every word is recovered.
func roundTrip(t *testing.T, name string, words []uint32) {
	t.Helper()
	enc, err := New(name)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	dec, err := NewDecoder(name)
	if err != nil {
		t.Fatalf("NewDecoder(%s): %v", name, err)
	}
	for i, w := range words {
		phys := enc.Encode(w)
		if phys>>uint(enc.Width()) != 0 {
			t.Fatalf("%s: physical word %#x exceeds width %d", name, phys, enc.Width())
		}
		got := dec.Decode(phys)
		if got != w {
			t.Fatalf("%s: word %d: encoded %#x decoded to %#x, want %#x", name, i, phys, got, w)
		}
	}
}

func TestRoundTripAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	words := make([]uint32, 2000)
	for i := range words {
		switch rng.Intn(3) {
		case 0: // sequential run
			if i > 0 {
				words[i] = words[i-1] + 4
			} else {
				words[i] = rng.Uint32()
			}
		case 1: // strided
			if i > 0 {
				words[i] = words[i-1] + 64
			} else {
				words[i] = rng.Uint32()
			}
		default: // random
			words[i] = rng.Uint32()
		}
	}
	for _, name := range AllSchemes() {
		t.Run(name, func(t *testing.T) { roundTrip(t, name, words) })
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, name := range AllSchemes() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(words []uint32) bool {
				enc, _ := New(name)
				dec, _ := NewDecoder(name)
				for _, w := range words {
					if dec.Decode(enc.Encode(w)) != w {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestBIInvertsWhenBeneficial(t *testing.T) {
	enc := NewBI()
	enc.Encode(0x00000000)
	// All 32 bits would flip; BI must invert (send 0 with invert line).
	phys := enc.Encode(0xFFFFFFFF)
	if phys&(1<<DataWidth) == 0 {
		t.Error("BI did not raise invert line for a 32-bit flip")
	}
	if uint32(phys) != 0 {
		t.Errorf("BI transmitted %#x, want 0 (inverted all-ones)", uint32(phys))
	}
	// The physical transition cost is 1 line (the invert line).
	if d := bits.OnesCount64(phys ^ 0); d != 1 {
		t.Errorf("BI physical Hamming = %d, want 1", d)
	}
}

func TestBIDoesNotInvertAtOrBelowHalf(t *testing.T) {
	enc := NewBI()
	enc.Encode(0)
	// Exactly 16 bits flip: no inversion (paper: invert only when greater
	// than half).
	phys := enc.Encode(0x0000FFFF)
	if phys&(1<<DataWidth) != 0 {
		t.Error("BI inverted on exactly half the bus width")
	}
}

func TestBIReducesSelfTransitions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	un := NewUnencoded()
	bi := NewBI()
	prevU, prevB := uint64(0), uint64(0)
	totalU, totalB := 0, 0
	for i := 0; i < 5000; i++ {
		w := rng.Uint32()
		pu := un.Encode(w)
		pb := bi.Encode(w)
		if i > 0 {
			totalU += selfCost(prevU, pu, un.Width())
			totalB += selfCost(prevB, pb, bi.Width())
		}
		prevU, prevB = pu, pb
	}
	if totalB >= totalU {
		t.Errorf("BI self transitions %d >= unencoded %d on random traffic", totalB, totalU)
	}
}

func TestOEBIModesReachable(t *testing.T) {
	// Craft inputs that exercise each OEBI mode.
	enc := NewOEBI()
	enc.Encode(0)
	seen := map[uint64]bool{}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		phys := enc.Encode(rng.Uint32())
		mode := (phys & 1) | (phys>>(DataWidth+1))&1<<1
		seen[mode] = true
	}
	if len(seen) < 3 {
		t.Errorf("OEBI exercised only %d of 4 modes on random traffic", len(seen))
	}
}

func TestOEBINoWorseCouplingThanUnencoded(t *testing.T) {
	// OEBI picks the minimum-coupling mode among four that include
	// "no inversion", so per step its physical coupling cost cannot
	// exceed the unencoded word placed on the same 34-wire layout.
	rng := rand.New(rand.NewSource(29))
	enc := NewOEBI()
	prevPhys := enc.Encode(rng.Uint32())
	for i := 0; i < 3000; i++ {
		w := rng.Uint32()
		phys := enc.Encode(w)
		rawPhys := uint64(w) << 1 // mode 00 candidate on the same layout
		cEnc := couplingCostRef(prevPhys, phys, enc.Width())
		cRaw := couplingCostRef(prevPhys, rawPhys, enc.Width())
		if cEnc > cRaw {
			t.Fatalf("step %d: OEBI coupling cost %d > unencoded-on-same-bus %d", i, cEnc, cRaw)
		}
		prevPhys = phys
	}
}

func TestCBIPicksLowerCouplingChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	enc := NewCBI()
	prev := enc.Encode(rng.Uint32())
	for i := 0; i < 3000; i++ {
		w := rng.Uint32()
		phys := enc.Encode(w)
		plain := uint64(w)
		inverted := uint64(^w) | 1<<DataWidth
		cPlain := couplingCostRef(prev, plain, enc.Width())
		cInv := couplingCostRef(prev, inverted, enc.Width())
		want := plain
		if cInv < cPlain {
			want = inverted
		}
		if phys != want {
			t.Fatalf("step %d: CBI sent %#x, want %#x (costs plain=%d inv=%d)", i, phys, want, cPlain, cInv)
		}
		prev = phys
	}
}

// TestPaperEncodersGolden pins the exact physical word streams of the
// paper's three encoders, so any change to a mode decision, the
// tie-break order included, shows up as a digest mismatch. Each digest is
// the SHA-256 of the little-endian uint64 words a fresh encoder emits.
// Stream A is 65536 words of rand.NewSource(1); stream B is the
// sequential addresses 4*i, whose many cost ties pin the tie-break order.
func TestPaperEncodersGolden(t *testing.T) {
	const n = 1 << 16
	random, sequential := make([]uint32, n), make([]uint32, n)
	rng := rand.New(rand.NewSource(1))
	for i := range random {
		random[i] = rng.Uint32()
		sequential[i] = uint32(4 * i)
	}
	cases := []struct {
		scheme, stream string
		words          []uint32
		want           string
	}{
		{"BI", "A", random, "9c309d65eda866fc2af8e11458dd991f14b69f0d03c85b6a6c32806c01466dff"},
		{"BI", "B", sequential, "6ff4565026d6e3b81888b96d60a4358a4fa63f5ccda7b82e2dfbc76b8f36a8bc"},
		{"OEBI", "A", random, "5235e1bdcdd7c0694a41e2f1e1566243220579bd6f487fe337a1f52b783e7cba"},
		{"OEBI", "B", sequential, "a90f117331425c00db9618d7773b120c07bbfc01367a2a1d40dd7f5315694c5d"},
		{"CBI", "A", random, "b9a2bf67228559f6ca7ad8eadd690325fd78e2dcaca409b23b244d0584dfe565"},
		{"CBI", "B", sequential, "d455831ba25cc2bf4eb143fd8b1f1817073966b3d0c17ac559b9af2a156c6a0f"},
	}
	for _, c := range cases {
		enc, err := New(c.scheme)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, w := range c.words {
			binary.LittleEndian.PutUint64(buf[:], enc.Encode(w))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s stream %s: digest %s, want %s", c.scheme, c.stream, got, c.want)
		}
	}
}

func TestGraySequentialSingleBit(t *testing.T) {
	enc := NewGray()
	prev := enc.Encode(100)
	for a := uint32(101); a < 200; a++ {
		cur := enc.Encode(a)
		if d := bits.OnesCount64(prev ^ cur); d != 1 {
			t.Fatalf("Gray consecutive addresses %d->%d flipped %d bits, want 1", a-1, a, d)
		}
		prev = cur
	}
}

func TestT0FreezesSequentialRuns(t *testing.T) {
	enc := NewT0(4)
	prev := enc.Encode(0x1000)
	for i := 1; i <= 50; i++ {
		cur := enc.Encode(0x1000 + uint32(4*i))
		if i == 1 {
			// First sequential step: INC rises (1 transition).
			if d := bits.OnesCount64(prev ^ cur); d != 1 {
				t.Fatalf("first sequential step flipped %d lines, want 1", d)
			}
		} else if cur != prev {
			t.Fatalf("sequential step %d changed the physical bus", i)
		}
		prev = cur
	}
	// A jump transmits the raw address with INC low.
	cur := enc.Encode(0x7FFF0000)
	if cur&(1<<DataWidth) != 0 {
		t.Error("jump left INC high")
	}
	if uint32(cur) != 0x7FFF0000 {
		t.Errorf("jump transmitted %#x", uint32(cur))
	}
}

func TestCouplingCostCases(t *testing.T) {
	// Two-wire bus, classify the canonical cases of Sec. 3.2.
	cases := []struct {
		prev, cur uint64
		want      int
	}{
		{0b00, 0b00, 0}, // quiet
		{0b00, 0b11, 0}, // same direction: no coupling cost
		{0b01, 0b10, 4}, // toggle: Miller doubled
		{0b00, 0b01, 1}, // charge against quiet
		{0b01, 0b00, 1}, // discharge against quiet
	}
	for _, c := range cases {
		if got := couplingCostRef(c.prev, c.cur, 2); got != c.want {
			t.Errorf("couplingCostRef(%02b->%02b) = %d, want %d", c.prev, c.cur, got, c.want)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Error("unknown encoder accepted")
	}
	if _, err := NewDecoder("nope"); err == nil {
		t.Error("unknown decoder accepted")
	}
}

func TestWidths(t *testing.T) {
	want := map[string]int{
		"Unencoded": 32, "BI": 33, "OEBI": 34, "CBI": 33, "Gray": 32, "T0": 33,
	}
	for name, w := range want {
		enc, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if enc.Width() != w {
			t.Errorf("%s width = %d, want %d", name, enc.Width(), w)
		}
		if enc.Name() != name {
			t.Errorf("Name() = %q, want %q", enc.Name(), name)
		}
	}
}

func TestReset(t *testing.T) {
	for _, name := range AllSchemes() {
		enc, _ := New(name)
		a := enc.Encode(0xDEADBEEF)
		enc.Encode(0x12345678)
		enc.Reset()
		b := enc.Encode(0xDEADBEEF)
		if a != b {
			t.Errorf("%s: Reset did not restore initial behaviour (%#x vs %#x)", name, a, b)
		}
	}
}
