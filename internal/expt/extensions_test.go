package expt

import (
	"testing"

	"nanobus/internal/itrs"
	"nanobus/internal/units"
)

func TestL2BusStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven study")
	}
	res, err := L2Bus(L2BusOptions{Cycles: 400_000, Benchmark: "mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if res.L2BusEnergy <= 0 {
		t.Error("L2 bus dissipated nothing on mcf")
	}
	// mcf misses hard: the L2 bus must be busy.
	if res.Duty < 0.1 {
		t.Errorf("L2 bus duty = %.3f, want > 0.1 for mcf", res.Duty)
	}
	if res.DL1MissRate < 0.3 {
		t.Errorf("D-L1 miss rate = %.3f, want > 0.3 for mcf", res.DL1MissRate)
	}
	// crafty barely misses: its L2 bus is almost idle and cheap.
	quiet, err := L2Bus(L2BusOptions{Cycles: 400_000, Benchmark: "crafty"})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Duty > 0.05 {
		t.Errorf("crafty L2 duty = %.3f, want near zero", quiet.Duty)
	}
	if quiet.L2BusEnergy >= res.L2BusEnergy {
		t.Errorf("crafty L2 energy %.3g >= mcf %.3g", quiet.L2BusEnergy, res.L2BusEnergy)
	}
}

// TestL2BusDrivesEveryAddress requires the L2 bus to drop no address the
// hierarchy raises: every one is driven or still queued at the end. swim
// raises two in one cycle during this window.
func TestL2BusDrivesEveryAddress(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven study")
	}
	for _, bench := range []string{"swim", "crafty"} {
		res, feed, err := l2Bus(L2BusOptions{Cycles: 400_000, Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if feed.driven+uint64(len(feed.queue)) != feed.raised || feed.raised == 0 {
			t.Errorf("%s: %d addresses driven and %d queued, %d raised",
				bench, feed.driven, len(feed.queue), feed.raised)
		}
		if res.Duty != float64(feed.driven)/400_000 {
			t.Errorf("%s: duty %g for %d driven addresses", bench, res.Duty, feed.driven)
		}
	}
}

func TestL2BusUnknownBenchmark(t *testing.T) {
	if _, err := L2Bus(L2BusOptions{Benchmark: "gcc", Cycles: 10}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSubstrateVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven study")
	}
	res, err := Substrate("swim", itrs.N130, 2_000_000, 500_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The varying substrate's +10 K half-cycles must push the peak above
	// the fixed-ambient peak (the combined effect the paper warns about).
	if res.MaxTempVarying <= res.MaxTempFixed {
		t.Errorf("varying substrate peak %.3f <= fixed %.3f", res.MaxTempVarying, res.MaxTempFixed)
	}
	// And by no more than the applied swing.
	if res.MaxTempVarying > res.MaxTempFixed+res.SwingK+0.5 {
		t.Errorf("peak rose by %.3f, more than the %.1f K swing",
			res.MaxTempVarying-res.MaxTempFixed, res.SwingK)
	}
	if res.MaxTempFixed <= units.AmbientK {
		t.Error("no heating in the fixed run")
	}
}

func TestSubstrateUnknownBenchmark(t *testing.T) {
	if _, err := Substrate("gcc", itrs.N130, 1000, 100, 10); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestEncStatsPaperFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven study")
	}
	// IA streams: inversion (essentially) never triggers — the paper's
	// core explanation for why encodings don't help instruction buses.
	ia, err := EncStats(EncStatsOptions{Cycles: 200_000, Benchmark: "eon", Bus: "IA"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ia {
		if r.InvertRate > 0.01 {
			t.Errorf("%s on IA inverts %.4f of cycles, want ~0", r.Scheme, r.InvertRate)
		}
	}
	// DA streams: OEBI's inversions are dominated by the all-invert mode
	// (the paper: "this mode occurred most of the time"), which is why
	// OEBI behaves like plain BI.
	da, err := EncStats(EncStatsOptions{Cycles: 200_000, Benchmark: "eon", Bus: "DA"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range da {
		if r.Scheme != "OEBI" {
			continue
		}
		if r.InvertRate < 0.05 {
			t.Errorf("OEBI never inverts on DA (%.4f)", r.InvertRate)
		}
		partial := r.OEBIModes[1] + r.OEBIModes[2]
		allInv := r.OEBIModes[3]
		if allInv < 5*partial {
			t.Errorf("all-invert mode (%.3f) does not dominate partial modes (%.3f)", allInv, partial)
		}
	}
}

func TestEncStatsValidation(t *testing.T) {
	if _, err := EncStats(EncStatsOptions{Benchmark: "gcc", Cycles: 10}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := EncStats(EncStatsOptions{Bus: "XX", Cycles: 10, Benchmark: "eon"}); err == nil {
		t.Error("unknown bus accepted")
	}
}
