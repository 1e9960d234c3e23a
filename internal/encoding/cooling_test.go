package encoding

import (
	"math/bits"
	"math/rand"
	"testing"
)

func TestCoolingWidths(t *testing.T) {
	want := map[string]int{"CoolSpread": 32, "CoolCap": 36}
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

// TestCoolSpreadSpreadsDuty is the scheme's defining property: a stream
// that hammers one bit position must distribute that position's switching
// activity across every wire, pulling the worst wire's transition count
// down toward the bus average.
func TestCoolSpreadSpreadsDuty(t *testing.T) {
	const words = 32 * CoolSpreadPeriod * 4 // several full rotation cycles
	countTransitions := func(enc Encoder) (perWire [DataWidth]uint64) {
		var prev uint64
		for i := 0; i < words; i++ {
			// Toggle bit 0 every word: without spreading, wire 0 sees
			// every transition and the other wires none.
			phys := enc.Encode(uint32(i & 1))
			if i > 0 {
				diff := prev ^ phys
				for w := 0; w < DataWidth; w++ {
					perWire[w] += (diff >> uint(w)) & 1
				}
			}
			prev = phys
		}
		return perWire
	}
	raw := countTransitions(NewUnencoded())
	spread := countTransitions(NewCoolSpread())

	var rawMax, spreadMax, spreadMin uint64
	spreadMin = ^uint64(0)
	for w := 0; w < DataWidth; w++ {
		if raw[w] > rawMax {
			rawMax = raw[w]
		}
		if spread[w] > spreadMax {
			spreadMax = spread[w]
		}
		if spread[w] < spreadMin {
			spreadMin = spread[w]
		}
	}
	if rawMax < words-1 {
		t.Fatalf("unencoded hot wire saw %d transitions, want ~%d", rawMax, words-1)
	}
	// Each of the 32 rotations holds the hot bit for Period words, 4
	// times over, plus boundary shifts: the worst wire must be within 2x
	// of the best, and far below the unencoded hot wire.
	if spreadMax > 4*spreadMin+uint64(8*CoolSpreadPeriod) {
		t.Errorf("CoolSpread imbalance: max %d vs min %d transitions", spreadMax, spreadMin)
	}
	if spreadMax*4 > rawMax {
		t.Errorf("CoolSpread hot wire %d not well below unencoded hot wire %d", spreadMax, rawMax)
	}
}

// TestCoolCapBoundsGroupWeight is CoolCap's defining property: no 8-bit
// group ever switches more than 4 data wires (+1 invert line) in one
// transition.
func TestCoolCapBoundsGroupWeight(t *testing.T) {
	enc := NewCoolCap()
	rng := rand.New(rand.NewSource(99))
	var prev uint64
	for i := 0; i < 20000; i++ {
		phys := enc.Encode(rng.Uint32())
		if i > 0 {
			diff := prev ^ phys
			for g := 0; g < coolCapGroups; g++ {
				dataSw := bits.OnesCount64((diff >> uint(8*g)) & 0xFF)
				if dataSw > 4 {
					t.Fatalf("word %d: group %d switched %d data wires, cap is 4", i, g, dataSw)
				}
			}
		}
		prev = phys
	}
}

// TestCoolingStatefulResume pins the checkpoint contract: capturing State
// mid-stream and replaying the tail on a fresh encoder must reproduce the
// original physical words exactly. CoolSpread additionally proves the
// rotation counter rides in State.Last.
func TestCoolingStatefulResume(t *testing.T) {
	for _, name := range []string{"CoolSpread", "CoolCap"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			words := make([]uint32, 500)
			for i := range words {
				words[i] = rng.Uint32()
			}
			ref, _ := New(name)
			want := make([]uint64, len(words))
			for i, w := range words {
				want[i] = ref.Encode(w)
			}

			head, _ := New(name)
			for _, w := range words[:137] {
				head.Encode(w)
			}
			st := head.(Stateful).State()

			tail, _ := New(name)
			tail.(Stateful).SetState(st)
			for i, w := range words[137:] {
				if got := tail.Encode(w); got != want[137+i] {
					t.Fatalf("resumed word %d: got %#x, want %#x", 137+i, got, want[137+i])
				}
			}
		})
	}
}

func TestPadPreservesEncodingAndState(t *testing.T) {
	inner := NewBI()
	padded := Pad(NewBI(), 36)
	if padded.Width() != 36 {
		t.Fatalf("padded width = %d, want 36", padded.Width())
	}
	if padded.Name() != "BI" {
		t.Fatalf("padded name = %q, want BI", padded.Name())
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		w := rng.Uint32()
		if a, b := inner.Encode(w), padded.Encode(w); a != b {
			t.Fatalf("word %d: inner %#x != padded %#x", i, a, b)
		}
	}
	if a, b := inner.State(), padded.(Stateful).State(); a != b {
		t.Fatalf("state diverged: %+v vs %+v", a, b)
	}
	if got := Pad(inner, inner.Width()); got.(*BI) != inner {
		t.Error("Pad to native width should return the encoder unchanged")
	}
	defer func() {
		if recover() == nil {
			t.Error("Pad narrower than encoder should panic")
		}
	}()
	Pad(NewCoolCap(), 33)
}

func TestPadBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := make([]uint32, 300)
	for i := range src {
		src[i] = rng.Uint32()
	}
	scalar := Pad(NewBI(), 36)
	batch := Pad(NewBI(), 36).(BatchEncoder)
	dst := make([]uint64, len(src))
	batch.EncodeBatch(dst, src)
	for i, w := range src {
		if want := scalar.Encode(w); dst[i] != want {
			t.Fatalf("word %d: batch %#x != scalar %#x", i, dst[i], want)
		}
	}
}

func TestCoolSpreadCustomPeriod(t *testing.T) {
	enc := &CoolSpread{Period: 2, first: true}
	dec := &CoolSpreadDecoder{Period: 2}
	for i := 0; i < 200; i++ {
		w := uint32(i * 2654435761)
		if got := dec.Decode(enc.Encode(w)); got != w {
			t.Fatalf("word %d: round trip failed", i)
		}
	}
	// Words 2 and 3 use rotation 1: bit 31 must land on wire 0.
	enc.Reset()
	enc.Encode(0)
	enc.Encode(0)
	if got := enc.Encode(1 << 31); got != 1 {
		t.Fatalf("rotation after period: got %#x, want 0x1", got)
	}
}
