package thermal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nanobus/internal/itrs"
)

// goldenSystem is what TestThermalGolden drives: a one-bus network (from
// NewFromNode) or a K-bus grid (from NewGridFromNode).
type goldenSystem interface {
	Advance(dt float64, power []float64) error
	SteadyState(power []float64) ([]float64, error)
	Temps(dst []float64) []float64
}

// goldenOptions are the five option sets of TestThermalGolden. The
// NodeOptions half applies at every K; BusGapPitches and
// DisableBusCoupling only change the K > 1 grids.
var goldenOptions = []GridNodeOptions{
	{},
	{NodeOptions: NodeOptions{DisableLateral: true}, BusGapPitches: 3},
	{NodeOptions: NodeOptions{DisableInterLayer: true}, DisableBusCoupling: true},
	{NodeOptions: NodeOptions{Ambient: 330, ViaAreaFraction: 0.005}, BusGapPitches: 20},
	{NodeOptions: NodeOptions{HeatCapacity: &HeatCapacityOptions{}}},
}

// thermalGoldens are the SHA-256 digests of TestThermalGolden's output on
// linux/amd64. math.Exp takes an FMA code path on CPUs that have one, so
// the last bits of the decay factors, and with them the digest, depend on
// the CPU: one digest per math.Exp path (the second is what
// GODEBUG=cpu.fma=off produces).
var thermalGoldens = map[string]string{
	"fma":    "510bcf71329e7011e6e5f47e44cda8cc5c4586e4a9c05e9715ac563fe94db895",
	"no-fma": "a0c6f90db439629f5ad6062ce5063600e30d79d5596f8a697b8308c583a180ac",
}

// TestThermalGolden pins every Advance and SteadyState output of the
// exact thermal step bit for bit: every technology node, widths 1-64, the
// five goldenOptions sets, one bus (NewFromNode) and K = 3 and 5 buses
// (NewGridFromNode), each over a schedule of three interval lengths with
// idle intervals. The digest is over the Float64bits of every value.
func TestThermalGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	if raceEnabled {
		t.Skip("single-threaded arithmetic; the race detector only slows it down")
	}
	h := sha256.New()
	var word [8]byte
	put := func(xs []float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
			h.Write(word[:])
		}
	}
	dts := []float64{1e-4, 5.95e-5, 1e-3}
	rng := rand.New(rand.NewSource(41))
	for _, node := range itrs.Nodes() {
		for oi, opts := range goldenOptions {
			for _, buses := range []int{1, 3, 5} {
				for wires := 1; wires <= 64; wires++ {
					var sys goldenSystem
					var err error
					if buses == 1 {
						sys, err = NewFromNode(node, wires, opts.NodeOptions)
					} else {
						sys, err = NewGridFromNode(node, wires, buses, opts)
					}
					if err != nil {
						t.Fatalf("%s options %d %dx%d: %v", node.Name, oi, buses, wires, err)
					}
					n := buses * wires
					ss, err := sys.SteadyState(nil)
					if err != nil {
						t.Fatal(err)
					}
					put(ss)
					for step := 0; step < 12; step++ {
						var p []float64
						if step%4 != 3 {
							p = randomPower(rng, n)
						}
						if err := sys.Advance(dts[step/4], p); err != nil {
							t.Fatal(err)
						}
						put(sys.Temps(nil))
						if step%3 == 0 {
							if ss, err = sys.SteadyState(p); err != nil {
								t.Fatal(err)
							}
							put(ss)
						}
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	for path, want := range thermalGoldens {
		if got == want {
			t.Logf("digest matches the %s golden", path)
			return
		}
	}
	t.Errorf("thermal golden digest %s matches no pinned digest %v", got, thermalGoldens)
}
