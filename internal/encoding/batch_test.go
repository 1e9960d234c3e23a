package encoding

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"nanobus/internal/workload"
)

// refEncode is the per-word definition of BI, OEBI and CBI. BI sends the
// complement when more than half of the held word's 32 data wires would
// toggle; OEBI and CBI decide with couplingCostRef: OEBI takes the first
// strictly cheapest of its four modes (none, even, odd, both inverted)
// and CBI the complement only when it is strictly cheaper.
func refEncode(name string, prev uint64, first bool, w uint32) uint64 {
	switch name {
	case "BI":
		if !first && bits.OnesCount32(uint32(prev)^w) > DataWidth/2 {
			return uint64(^w) | 1<<DataWidth
		}
		return uint64(w)
	case "OEBI":
		plain := uint64(w) << 1
		if first {
			return plain
		}
		even := uint64(oebiEvenMask)<<1 | 1<<(DataWidth+1)
		odd := uint64(oebiOddMask)<<1 | 1
		best, bestCost := plain, couplingCostRef(prev, plain, DataWidth+2)
		for _, m := range []uint64{even, odd, even | odd} {
			if c := couplingCostRef(prev, plain^m, DataWidth+2); c < bestCost {
				best, bestCost = plain^m, c
			}
		}
		return best
	default: // CBI
		plain, inverted := uint64(w), uint64(^w)|1<<DataWidth
		if !first && couplingCostRef(prev, inverted, DataWidth+1) < couplingCostRef(prev, plain, DataWidth+1) {
			return inverted
		}
		return plain
	}
}

// TestBatchEncodersMatchPerWord checks BI's, OEBI's and CBI's EncodeBatch
// against per-word Encode, and both against refEncode, on random words
// and on the IA and DA address streams of every benchmark's captured
// window. The batch side runs in random splits, so the first word and
// the held word cross batch boundaries.
func TestBatchEncodersMatchPerWord(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	streams := map[string][]uint32{}
	random := make([]uint32, 5000)
	for i := range random {
		random[i] = rng.Uint32()
	}
	streams["random"] = random
	const cycles = 3000
	for _, b := range workload.All() {
		src, err := b.NewWarmSource(b.WarmupCycles)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cycles; i++ {
			c, ok := src.Next()
			if !ok {
				t.Fatalf("%s: trace ended after %d cycles", b.Name, i)
			}
			if c.IValid {
				streams[b.Name+"/ia"] = append(streams[b.Name+"/ia"], c.IAddr)
			}
			if c.DValid {
				streams[b.Name+"/da"] = append(streams[b.Name+"/da"], c.DAddr)
			}
		}
	}
	for _, name := range []string{"BI", "OEBI", "CBI"} {
		for sname, words := range streams {
			label := fmt.Sprintf("%s on %s", name, sname)
			perWord, batched := mustNew(t, name), mustNew(t, name)
			want := make([]uint64, len(words))
			prev := uint64(0)
			for i, w := range words {
				want[i] = perWord.Encode(w)
				if ref := refEncode(name, prev, i == 0, w); want[i] != ref {
					t.Fatalf("%s: word %d: Encode %#x, reference %#x", label, i, want[i], ref)
				}
				prev = want[i]
			}
			got := make([]uint64, len(words))
			for i := 0; i < len(words); {
				n := min(len(words)-i, rng.Intn(300))
				batched.(BatchEncoder).EncodeBatch(got[i:i+n], words[i:i+n])
				i += n
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: word %d: EncodeBatch %#x, Encode %#x", label, i, got[i], want[i])
				}
			}
		}
	}
}

func mustNew(t *testing.T, name string) Encoder {
	t.Helper()
	e, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
