package encoding

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// FuzzEncoders drives every registered scheme over an arbitrary word
// stream and checks the invariants that the simulator and the wire
// protocols rely on: encode/decode round-trips, physical words stay
// inside the declared width, EncodeBatch matches per-word Encode, and a
// State capture/restore mid-stream reproduces the original output.
func FuzzEncoders(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0xAA, 0x55, 0xAA, 0x55})
	seq := make([]byte, 64*4)
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint32(seq[i*4:], uint32(i*4))
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]uint32, 0, len(raw)/4+1)
		for len(raw) >= 4 {
			words = append(words, binary.LittleEndian.Uint32(raw))
			raw = raw[4:]
		}
		if len(raw) > 0 {
			var tail [4]byte
			copy(tail[:], raw)
			words = append(words, binary.LittleEndian.Uint32(tail[:]))
		}
		for _, name := range AllSchemes() {
			enc, err := New(name)
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			dec, err := NewDecoder(name)
			if err != nil {
				t.Fatalf("NewDecoder(%s): %v", name, err)
			}
			width := uint(enc.Width())
			phys := make([]uint64, len(words))
			for i, w := range words {
				phys[i] = enc.Encode(w)
				if width < 64 && phys[i]>>width != 0 {
					t.Fatalf("%s: word %d: physical %#x exceeds width %d", name, i, phys[i], width)
				}
				if got := dec.Decode(phys[i]); got != w {
					t.Fatalf("%s: word %d: decoded %#x, want %#x", name, i, got, w)
				}
			}

			if be, ok := enc.(BatchEncoder); ok {
				enc.Reset()
				batch := make([]uint64, len(words))
				be.EncodeBatch(batch, words)
				for i := range batch {
					if batch[i] != phys[i] {
						t.Fatalf("%s: word %d: EncodeBatch %#x != Encode %#x", name, i, batch[i], phys[i])
					}
				}
			}

			if se, ok := enc.(Stateful); ok && len(words) > 1 {
				cut := len(words) / 2
				enc.Reset()
				for _, w := range words[:cut] {
					enc.Encode(w)
				}
				st := se.State()
				fresh, _ := New(name)
				fresh.(Stateful).SetState(st)
				for i, w := range words[cut:] {
					if got := fresh.Encode(w); got != phys[cut+i] {
						t.Fatalf("%s: resumed word %d: got %#x, want %#x", name, cut+i, got, phys[cut+i])
					}
				}
			}
		}
	})
}

// FuzzModeCosts checks the mask-derived mode costs behind every OEBI and
// CBI decision against the per-pair definition, for an arbitrary held
// word (SetState restores any, bits at and above the bus width included)
// and data word: each of OEBI's four candidates and both of CBI's must
// cost what couplingCostRef says, and the word BI, OEBI and CBI emit from
// that state must be refEncode's. Besides the edge cases, the seed
// corpus holds random pairs, so plain `go test` runs the check too.
func FuzzModeCosts(f *testing.F) {
	f.Add(uint64(0), uint32(0))
	f.Add(uint64(0b01), uint32(0b10))
	f.Add(uint64(0x5555555555555555), uint32(0xAAAAAAAA))
	f.Add(uint64(0xFFFFFFFF00000000), uint32(0xFFFFFFFF))
	f.Add(uint64(1)<<63, uint32(0))
	// Held words with bits at and above the CBI (33) and OEBI (34) widths.
	f.Add(uint64(1)<<DataWidth, uint32(0x80000000))
	f.Add(uint64(1)<<(DataWidth+1), uint32(0x80000001))
	f.Add(uint64(1)<<(DataWidth+2), uint32(0x7FFFFFFF))
	f.Add(^uint64(0), uint32(0x55555555))
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 64; i++ {
		f.Add(rng.Uint64(), rng.Uint32())
		f.Add(rng.Uint64()>>(30+i%4)|uint64(1)<<(DataWidth+i%3), rng.Uint32())
	}
	f.Fuzz(func(t *testing.T, prev uint64, w uint32) {
		plain := uint64(w) << 1
		singles, even, odd := oebiClassTerms(prev, plain)
		none, both := opposed(prev, plain, oebiPairs)
		for _, c := range []struct {
			mode string
			got  int
			mask uint64
		}{
			{"none", cost(singles, none), 0},
			{"even", cost(oebiPairCount-singles, even), oebiEven},
			{"odd", cost(oebiPairCount-singles, odd), oebiOdd},
			{"both", cost(singles, both), oebiBoth},
		} {
			if want := couplingCostRef(prev, plain^c.mask, DataWidth+2); c.got != want {
				t.Fatalf("OEBI %s from %#x for %#x: cost %d, want %d", c.mode, prev, w, c.got, want)
			}
		}
		// CBI's two candidates have the same single pairs.
		kept, inverted := opposed(prev, uint64(w), cbiPairs)
		tc := prev ^ uint64(w)
		cbiSingles := bits.OnesCount64((tc ^ tc>>1) & cbiPairs)
		if want := couplingCostRef(prev, uint64(w), DataWidth+1); cost(cbiSingles, kept) != want {
			t.Fatalf("CBI plain from %#x for %#x: cost %d, want %d", prev, w, cost(cbiSingles, kept), want)
		}
		if want := couplingCostRef(prev, uint64(^w)|1<<DataWidth, DataWidth+1); cost(cbiSingles, inverted) != want {
			t.Fatalf("CBI complement from %#x for %#x: cost %d, want %d", prev, w, cost(cbiSingles, inverted), want)
		}
		for _, name := range []string{"BI", "OEBI", "CBI"} {
			for _, first := range []bool{false, true} {
				enc := mustNew(t, name)
				enc.(Stateful).SetState(State{Prev: prev, First: first})
				if got, want := enc.Encode(w), refEncode(name, prev, first, w); got != want {
					t.Fatalf("%s from %#x (first %v) for %#x: sent %#x, want %#x", name, prev, first, w, got, want)
				}
			}
		}
	})
}

// FuzzCouplingCost checks opposed, the one width-generic mask helper,
// against the per-pair definition on arbitrary words at every width
// 1..64, including words with bits set at or above width: a word costs
// its single pairs plus 4 per opposed pair (opposed's kept count), and
// the word with every wire of the bus inverted costs the same single
// pairs plus 4 per pair of opposed's inverted count. Besides the edge
// cases, the seed corpus holds random triples, so plain `go test` runs
// the differential check too.
func FuzzCouplingCost(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(34))
	f.Add(uint64(0b01), uint64(0b10), uint8(2))
	f.Add(uint64(0x5555555555555555), uint64(0xAAAAAAAAAAAAAAAA), uint8(64))
	f.Add(uint64(0xFFFFFFFF00000000), uint64(0x00000000FFFFFFFF), uint8(33))
	f.Add(uint64(1)<<63, uint64(0), uint8(1))
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 64; i++ {
		f.Add(rng.Uint64(), rng.Uint64(), uint8(i))
	}
	f.Fuzz(func(t *testing.T, prev, cur uint64, width uint8) {
		w := uint(width)%64 + 1
		pairs, wires := uint64(1)<<(w-1)-1, uint64(1)<<w-1
		tr := prev ^ cur
		singles := bits.OnesCount64((tr ^ tr>>1) & pairs)
		kept, inverted := opposed(prev, cur, pairs)
		if got, want := cost(singles, kept), couplingCostRef(prev, cur, int(w)); got != want {
			t.Fatalf("cost(%#x -> %#x) on %d wires = %d, want %d", prev, cur, w, got, want)
		}
		if got, want := cost(singles, inverted), couplingCostRef(prev, cur^wires, int(w)); got != want {
			t.Fatalf("cost(%#x -> inverted %#x) on %d wires = %d, want %d", prev, cur, w, got, want)
		}
	})
}
