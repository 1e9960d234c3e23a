package encoding

import (
	"encoding/binary"
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

// FuzzCouplingCost checks the mask form of couplingCost against the
// per-pair definition on arbitrary words and every width 1..64,
// including words with bits set at or above width. Besides the edge
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
		w := int(width)%64 + 1
		if got, want := couplingCost(prev, cur, w), couplingCostRef(prev, cur, w); got != want {
			t.Fatalf("couplingCost(%#x, %#x, %d) = %d, want %d", prev, cur, w, got, want)
		}
	})
}
