package expt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"nanobus/internal/itrs"
)

// fig3Golden is the SHA-256 digest of TestFig3Golden's cells on
// linux/amd64. It is the same with and without GODEBUG=cpu.fma=off.
const fig3Golden = "bb4ff077c8991a40ba479a26c1985a0f57492802154ded793cc98292b6563cb7"

// TestFig3Golden pins every Fig. 3 cell bit for bit: eon, mcf and swim at
// 130 and 45 nm, the four paper schemes on both buses, 60,000 cycles,
// swept at one worker and at three. The digest covers each cell's
// strings, its Cycles and the Float64bits of Self, NN and All, so any
// change to the capture, the replay or the fold order shows here.
func TestFig3Golden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest is pinned for amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	for _, workers := range []int{1, 3} {
		cells, err := Fig3(Fig3Options{
			Cycles:     60_000,
			Benchmarks: []string{"eon", "mcf", "swim"},
			Nodes:      []itrs.Node{itrs.N130, itrs.N45},
			Workers:    workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := fig3Digest(cells); got != fig3Golden {
			t.Errorf("workers=%d: digest %s, want %s", workers, got, fig3Golden)
		}
	}
}

// fig3Digest hashes cells in order; strings are length-prefixed so
// adjacent fields cannot run together.
func fig3Digest(cells []Fig3Cell) string {
	h := sha256.New()
	var word [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	for _, c := range cells {
		for _, s := range []string{c.Bus, c.Node, c.Scheme, c.Benchmark} {
			put(uint64(len(s)))
			h.Write([]byte(s))
		}
		put(c.Cycles)
		put(math.Float64bits(c.Self))
		put(math.Float64bits(c.NN))
		put(math.Float64bits(c.All))
	}
	return hex.EncodeToString(h.Sum(nil))
}
