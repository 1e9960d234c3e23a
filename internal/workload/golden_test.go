package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"nanobus/internal/cpu"
)

// goldenCycles is the length of each pinned trace prefix; warmCycles the
// length of each pinned steady-state window after the benchmark's own
// warm-up skip.
const (
	goldenCycles = 1 << 20
	warmCycles   = 1 << 18
)

// traceGolden pins one benchmark's first goldenCycles cycles: the SHA-256
// of the address stream and the CPU state the run ends in.
type traceGolden struct {
	sha      string
	counters cpu.Counters
	instret  uint64
	pages    int
}

// benchmarkTraceGoldens are the reference streams. Any change to the
// interpreter must reproduce them bit for bit: every figure in the paper
// study is computed from them.
var benchmarkTraceGoldens = map[string]traceGolden{
	"eon": {
		sha:      "6e139ee151dda057fb3cb4e56540518667f95d0c534b38e37f9b7f7637c12ba3",
		counters: cpu.Counters{Loads: 186420, Stores: 82067, Branches: 20762, Taken: 17218, Jumps: 75237, FPOps: 172248},
		instret:  1048576,
		pages:    20,
	},
	"crafty": {
		sha:      "d8025bd7a6111c507c4feade22ab1c64264f695c21b3a0a634e3d374d78478bc",
		counters: cpu.Counters{Loads: 25859, Stores: 2641, Branches: 130314, Taken: 102838, Jumps: 25858, FPOps: 0},
		instret:  1048576,
		pages:    3,
	},
	"twolf": {
		sha:      "135c8662df5d682466df2848b312960ced22be60c771eaaf3413c20c4fb616eb",
		counters: cpu.Counters{Loads: 95318, Stores: 113226, Branches: 113195, Taken: 89349, Jumps: 47658, FPOps: 0},
		instret:  1048576,
		pages:    65,
	},
	"mcf": {
		sha:      "5647a17ef14a6adb5324a0ad6d11b0bb40e84595ab4348b23618ac0c814a8f50",
		counters: cpu.Counters{Loads: 0, Stores: 190648, Branches: 95324, Taken: 95324, Jumps: 0, FPOps: 0},
		instret:  1048576,
		pages:    374,
	},
	"applu": {
		sha:      "e8f10ec8ce631f071fb8d15ef2c677516232adb86380392809b48995cf02b32b",
		counters: cpu.Counters{Loads: 0, Stores: 131070, Branches: 131069, Taken: 131069, Jumps: 0, FPOps: 0},
		instret:  1048576,
		pages:    129,
	},
	"swim": {
		sha:      "33cf9640f7b94dbf3461b113d248b17f1c6e431bcaaa2433f57fb935e35e00bc",
		counters: cpu.Counters{Loads: 0, Stores: 149793, Branches: 74896, Taken: 74896, Jumps: 0, FPOps: 0},
		instret:  1048576,
		pages:    149,
	},
	"art": {
		sha:      "f17e8b8f2713b24917640d2d6553a482b52d1d5977085debc566766bde1107e9",
		counters: cpu.Counters{Loads: 0, Stores: 131069, Branches: 131069, Taken: 131069, Jumps: 0, FPOps: 0},
		instret:  1048576,
		pages:    129,
	},
	"ammp": {
		sha:      "1ac58f3034f8a69fe10795d234961696f71ba61d0ec51142c577e881dd000d3a",
		counters: cpu.Counters{Loads: 0, Stores: 131069, Branches: 131068, Taken: 131067, Jumps: 0, FPOps: 0},
		instret:  1048576,
		pages:    129,
	},
	"gzip": {
		sha:      "7b727edf95736a5bb396f43f7afe2495eb9e51b5926f96b9865e3f6ce5bc6040",
		counters: cpu.Counters{Loads: 0, Stores: 174760, Branches: 174759, Taken: 174759, Jumps: 0, FPOps: 0},
		instret:  1048576,
		pages:    172,
	},
	"equake": {
		sha:      "d342f7b1645e14cd9116d83ae22a42953ae4966729e06b59e3e0ace8a54cfc2f",
		counters: cpu.Counters{Loads: 0, Stores: 131069, Branches: 131068, Taken: 131067, Jumps: 0, FPOps: 0},
		instret:  1048576,
		pages:    129,
	},
}

// warmTraceGoldens pins the steady loops of the paper's eon/swim pair,
// which the cold prefixes above barely reach (swim's FP loop starts after
// its data initialisation).
var warmTraceGoldens = map[string]traceGolden{
	"eon": {
		sha:      "7c42802017567e0214b631249ba356a4f7c79342d1753696e827243983175239",
		counters: cpu.Counters{Loads: 230721, Stores: 97238, Branches: 21499, Taken: 17554, Jumps: 83986, FPOps: 214947},
		instret:  1262144,
		pages:    20,
	},
	"swim": {
		sha:      "60c4813a15c4250d77ea1dd86817c44b2798bfa8d2f9be55202300def7c01f52",
		counters: cpu.Counters{Loads: 161484, Stores: 578115, Branches: 315971, Taken: 315970, Jumps: 0, FPOps: 107656},
		instret:  4262144,
		pages:    566,
	},
}

// hashTrace skips the benchmark's first skip cycles, then pulls n cycles
// and hashes IValid, IAddr, DValid, DAddr and DStore of each,
// little-endian. It returns the digest and the CPU state left behind.
func hashTrace(t *testing.T, b Benchmark, skip uint64, n int) traceGolden {
	t.Helper()
	src, err := b.NewSource()
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	for i := uint64(0); i < skip; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("%s: source ended in warm-up after %d cycles: %v", b.Name, i, src.Err())
		}
	}
	h := sha256.New()
	var rec [11]byte
	for i := 0; i < n; i++ {
		c, ok := src.Next()
		if !ok {
			t.Fatalf("%s: source ended after %d cycles: %v", b.Name, i, src.Err())
		}
		rec[0] = b2byte(c.IValid)
		binary.LittleEndian.PutUint32(rec[1:5], c.IAddr)
		rec[5] = b2byte(c.DValid)
		binary.LittleEndian.PutUint32(rec[6:10], c.DAddr)
		rec[10] = b2byte(c.DStore)
		h.Write(rec[:])
	}
	return traceGolden{
		sha:      hex.EncodeToString(h.Sum(nil)),
		counters: src.CPU.Counters,
		instret:  src.CPU.Instret,
		pages:    src.CPU.Mem.PageCount(),
	}
}

func b2byte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// TestBenchmarkTracesGolden pins the trace generator: for every benchmark
// the first 2^20 cycles hash to a recorded digest and leave the recorded
// instruction mix, instruction count and page footprint behind. The paper
// pair is also pinned over a window past its warm-up skip.
func TestBenchmarkTracesGolden(t *testing.T) {
	check := func(t *testing.T, b Benchmark, goldens map[string]traceGolden, skip uint64, n int) {
		got := hashTrace(t, b, skip, n)
		want, ok := goldens[b.Name]
		if !ok {
			t.Fatalf("no golden for %s; measured %#v", b.Name, got)
		}
		if got != want {
			t.Errorf("%s trace moved:\n got %+v\nwant %+v", b.Name, got, want)
		}
	}
	for _, b := range AllWithExtras() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			check(t, b, benchmarkTraceGoldens, 0, goldenCycles)
		})
	}
	eon, swim := PaperPair()
	for _, b := range []Benchmark{eon, swim} {
		b := b
		t.Run(b.Name+"/warm", func(t *testing.T) {
			t.Parallel()
			check(t, b, warmTraceGoldens, b.WarmupCycles, warmCycles)
		})
	}
}
