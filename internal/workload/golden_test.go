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

// warmTraceGoldens pins the steady loops of the paper's eight
// benchmarks, which the cold prefixes above barely reach (swim's FP loop
// starts after its data initialisation): each window starts after the
// benchmark's own warm-up skip.
var warmTraceGoldens = map[string]traceGolden{
	"eon": {
		sha:      "7c42802017567e0214b631249ba356a4f7c79342d1753696e827243983175239",
		counters: cpu.Counters{Loads: 230721, Stores: 97238, Branches: 21499, Taken: 17554, Jumps: 83986, FPOps: 214947},
		instret:  1262144,
		pages:    20,
	},
	"crafty": {
		sha:      "f89bfb1e83f7c072c215f2759dc53bd062d67f766a469433369aa0fc8767a254",
		counters: cpu.Counters{Loads: 18753, Stores: 2197, Branches: 94789, Taken: 74862, Jumps: 18752, FPOps: 0},
		instret:  762144,
		pages:    3,
	},
	"twolf": {
		sha:      "8c570f9a785aeb9236425657ca5bbe4337e3de40c90168374dc49a8aba68f8d1",
		counters: cpu.Counters{Loads: 121172, Stores: 126332, Branches: 126122, Taken: 95723, Jumps: 60586, FPOps: 0},
		instret:  1262144,
		pages:    65,
	},
	"mcf": {
		sha:      "1fd25d3323651bc1efacbea0faf2d0a7e17e22af6e66fbb50fc5008e990b07d7",
		counters: cpu.Counters{Loads: 246610, Stores: 539701, Branches: 385448, Taken: 370034, Jumps: 123304, FPOps: 0},
		instret:  3762144,
		pages:    1025,
	},
	"applu": {
		sha:      "9729b71ee177e7066342dd5bfb49e3c3d39e2d04d46ddb20caa33d25017421d7",
		counters: cpu.Counters{Loads: 468378, Stores: 1204702, Branches: 1204701, Taken: 1204700, Jumps: 0, FPOps: 468378},
		instret:  10262144,
		pages:    1025,
	},
	"swim": {
		sha:      "60c4813a15c4250d77ea1dd86817c44b2798bfa8d2f9be55202300def7c01f52",
		counters: cpu.Counters{Loads: 161484, Stores: 578115, Branches: 315971, Taken: 315970, Jumps: 0, FPOps: 107656},
		instret:  4262144,
		pages:    566,
	},
	"art": {
		sha:      "231c781df6b5c8e58a24cbbc905d1b7da08f0cc85537403b10147c2fe3097994",
		counters: cpu.Counters{Loads: 282963, Stores: 266274, Branches: 407755, Taken: 407719, Jumps: 0, FPOps: 282997},
		instret:  3262144,
		pages:    262,
	},
	"ammp": {
		sha:      "ad3003fa17b2d86314bf000f0437561a2d194c1466d53ce40c63305b0d8db4c9",
		counters: cpu.Counters{Loads: 781038, Stores: 261695, Branches: 717298, Taken: 652206, Jumps: 3, FPOps: 520692},
		instret:  4762144,
		pages:    193,
	},
}

// hashTrace takes a source from NewWarmSource(skip), so a warm window is
// reached through the same skip every experiment takes, then pulls n
// cycles and hashes IValid, IAddr, DValid, DAddr and DStore of each,
// little-endian. It returns the digest and the CPU state left behind.
func hashTrace(t *testing.T, b Benchmark, skip uint64, n int) traceGolden {
	t.Helper()
	warm, err := b.NewWarmSource(skip)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	src, ok := warm.(*cpu.TraceSource)
	if !ok {
		t.Fatalf("%s: NewWarmSource returned %T, want *cpu.TraceSource", b.Name, warm)
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
// instruction mix, instruction count and page footprint behind. Each of
// the paper's eight is also pinned over a window past its warm-up skip.
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
	for _, b := range All() {
		b := b
		t.Run(b.Name+"/warm", func(t *testing.T) {
			t.Parallel()
			check(t, b, warmTraceGoldens, b.WarmupCycles, warmCycles)
		})
	}
}
