package workload

import (
	"testing"

	"nanobus/internal/cache"
	"nanobus/internal/trace"
)

func TestAllBenchmarksAssemble(t *testing.T) {
	bs := All()
	if len(bs) != 8 {
		t.Fatalf("%d benchmarks, want 8", len(bs))
	}
	for _, b := range bs {
		if _, err := b.Program(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestRegistryAndOrder(t *testing.T) {
	names := Names()
	// Integer programs first.
	wantInt := map[string]bool{"eon": true, "crafty": true, "twolf": true, "mcf": true}
	for i, n := range names[:4] {
		if !wantInt[n] {
			t.Errorf("position %d is %s, want an integer benchmark", i, n)
		}
	}
	if _, ok := ByName("swim"); !ok {
		t.Error("swim not registered")
	}
	if _, ok := ByName("gcc"); ok {
		t.Error("unknown benchmark resolved")
	}
}

// runCycles pulls n cycles and returns the collected stats.
func runCycles(t *testing.T, b Benchmark, skip, n uint64) (ia, da trace.StreamStats) {
	t.Helper()
	src, err := b.NewWarmSource(skip)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	ia, da, got := trace.CollectStats(src, n)
	if got != n {
		t.Fatalf("%s: source ended after %d of %d cycles", b.Name, got, n)
	}
	return ia, da
}

func TestBenchmarksRunAndCharacter(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle workload characterisation")
	}
	// Duty-factor envelopes per benchmark: [min, max] fraction of cycles
	// with a data access in steady state.
	type envelope struct {
		skip    uint64
		dutyMin float64
		dutyMax float64
	}
	cases := map[string]envelope{
		"eon":    {skip: 600_000, dutyMin: 0.15, dutyMax: 0.5},
		"crafty": {skip: 100_000, dutyMin: 0.02, dutyMax: 0.25},
		"twolf":  {skip: 800_000, dutyMin: 0.1, dutyMax: 0.5},
		"mcf":    {skip: 3_000_000, dutyMin: 0.25, dutyMax: 0.6},
		"swim":   {skip: 4_000_000, dutyMin: 0.3, dutyMax: 0.6},
		"applu":  {skip: 9_500_000, dutyMin: 0.25, dutyMax: 0.6},
		"art":    {skip: 3_000_000, dutyMin: 0.2, dutyMax: 0.6},
		"ammp":   {skip: 4_000_000, dutyMin: 0.25, dutyMax: 0.6},
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			env, ok := cases[b.Name]
			if !ok {
				t.Fatalf("no envelope for %s", b.Name)
			}
			ia, da := runCycles(t, b, env.skip, 400_000)
			if d := da.DutyFactor(); d < env.dutyMin || d > env.dutyMax {
				t.Errorf("DA duty = %.3f, want in [%.2f, %.2f]", d, env.dutyMin, env.dutyMax)
			}
			// The paper's core observation: consecutive IA words are
			// close — BI should almost never trigger.
			if f := ia.FracAboveHalf(); f > 0.02 {
				t.Errorf("IA frac above half-width = %.4f, want ~0", f)
			}
			if ia.DutyFactor() != 1 {
				t.Errorf("IA duty = %.3f, want 1 (fetch every cycle)", ia.DutyFactor())
			}
		})
	}
}

func TestMcfMissesInL2(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle cache characterisation")
	}
	// mcf's 4MB ring must thrash the 256KB L2; swim streams, so it also
	// misses; crafty's tables are hot and must mostly hit.
	missRates := map[string]float64{}
	for _, name := range []string{"mcf", "crafty"} {
		b, _ := ByName(name)
		src, err := b.NewWarmSource(3_500_000)
		if err != nil {
			t.Fatal(err)
		}
		h, err := cache.NewPaperHierarchy()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500_000; i++ {
			c, ok := src.Next()
			if !ok {
				t.Fatalf("%s ended early", name)
			}
			h.Fetch(c.IAddr)
			if c.DValid {
				if c.DStore {
					h.Store(c.DAddr)
				} else {
					h.Load(c.DAddr)
				}
			}
		}
		s := h.DL1.Stats()
		missRates[name] = float64(s.ReadMisses) / float64(s.Reads)
	}
	if missRates["mcf"] < 0.4 {
		t.Errorf("mcf D-L1 read miss rate = %.3f, want > 0.4 (4MB ring vs 16KB cache)", missRates["mcf"])
	}
	if missRates["crafty"] > 0.05 {
		t.Errorf("crafty D-L1 read miss rate = %.3f, want < 0.05 (hot tables)", missRates["crafty"])
	}
}

func TestExtraBenchmarks(t *testing.T) {
	all := AllWithExtras()
	if len(all) != 10 {
		t.Fatalf("%d benchmarks with extras, want 10", len(all))
	}
	// All() keeps the paper's exact set of eight.
	if len(All()) != 8 {
		t.Fatalf("All() = %d, want the paper's 8", len(All()))
	}
	for _, name := range []string{"gzip", "equake"} {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if !b.Extra {
			t.Errorf("%s not marked Extra", name)
		}
		if _, err := b.Program(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Extras sort after the paper set.
	if all[8].Extra != true || all[9].Extra != true {
		t.Error("extras not sorted last")
	}
}

func TestExtraBenchmarksRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle workload characterisation")
	}
	type envelope struct {
		skip             uint64
		dutyMin, dutyMax float64
	}
	cases := map[string]envelope{
		"gzip":   {skip: 2_500_000, dutyMin: 0.15, dutyMax: 0.5},
		"equake": {skip: 4_000_000, dutyMin: 0.2, dutyMax: 0.6},
	}
	for name, env := range cases {
		b, _ := ByName(name)
		ia, da := runCycles(t, b, env.skip, 300_000)
		if d := da.DutyFactor(); d < env.dutyMin || d > env.dutyMax {
			t.Errorf("%s: DA duty = %.3f, want in [%.2f, %.2f]", name, d, env.dutyMin, env.dutyMax)
		}
		if f := ia.FracAboveHalf(); f > 0.02 {
			t.Errorf("%s: IA frac above half = %.4f", name, f)
		}
	}
}

func TestWarmSourcePropagatesError(t *testing.T) {
	bad := Benchmark{Name: "bad", Class: Int, Source: "bogus instruction"}
	if _, err := bad.NewSource(); err == nil {
		t.Error("unassemblable benchmark accepted")
	}
}

func TestStackAndHeapRegionsAppear(t *testing.T) {
	if testing.Short() {
		t.Skip("workload characterisation")
	}
	// eon must touch both the heap (scene) and the stack region; the
	// region switches drive the paper's high-order-bit observation.
	b, _ := ByName("eon")
	src, err := b.NewWarmSource(600_000)
	if err != nil {
		t.Fatal(err)
	}
	heap, stack := 0, 0
	for i := 0; i < 200_000; i++ {
		c, ok := src.Next()
		if !ok {
			t.Fatal("eon ended early")
		}
		if !c.DValid {
			continue
		}
		switch {
		case c.DAddr >= 0x1000_0000 && c.DAddr < 0x3000_0000:
			heap++
		case c.DAddr >= 0x7000_0000:
			stack++
		}
	}
	if heap == 0 || stack == 0 {
		t.Errorf("eon regions: heap=%d stack=%d, want both nonzero", heap, stack)
	}
}
