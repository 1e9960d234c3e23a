package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/itrs"
)

// interleave packs per-bus word streams (cols[k][r]) into the cycle-major
// slab MultiSim.StepBatch consumes.
func interleave(cols [][]uint32) []uint32 {
	buses := len(cols)
	rows := len(cols[0])
	out := make([]uint32, rows*buses)
	for r := 0; r < rows; r++ {
		for k := 0; k < buses; k++ {
			out[r*buses+k] = cols[k][r]
		}
	}
	return out
}

// TestMultiSimK1BitIdentical is the tentpole identity gate: for every
// encoder scheme and node, a K=1 MultiSim must produce bit-identical
// (Float64bits) samples, totals and temperatures to the scalar Simulator
// over the same stream.
func TestMultiSimK1BitIdentical(t *testing.T) {
	nodes := []itrs.Node{itrs.N130, itrs.N90}
	for _, node := range nodes {
		for _, scheme := range encoding.AllSchemes() {
			enc1, err := encoding.New(scheme)
			if err != nil {
				t.Fatalf("encoding.New(%s): %v", scheme, err)
			}
			enc2, err := encoding.New(scheme)
			if err != nil {
				t.Fatalf("encoding.New(%s): %v", scheme, err)
			}
			cfg := Config{
				Node:           node,
				Encoder:        enc1,
				CouplingDepth:  -1,
				IntervalCycles: 1000,
				TrackWireTemps: true,
			}
			sim, err := New(cfg)
			if err != nil {
				t.Fatalf("New(%s/%s): %v", node.Name, scheme, err)
			}
			mcfg := cfg
			mcfg.Encoder = enc2
			msim, err := NewMulti(MultiConfig{Config: mcfg, Buses: 1})
			if err != nil {
				t.Fatalf("NewMulti(%s/%s): %v", node.Name, scheme, err)
			}

			rng := rand.New(rand.NewSource(11))
			words := make([]uint32, 3500) // 3.5 intervals: exercises the partial flush
			for i := range words {
				if rng.Intn(2) == 0 {
					words[i] = rng.Uint32()
				} else {
					words[i] = uint32(i) * 4
				}
			}
			ctx := context.Background()
			if _, err := sim.StepBatch(ctx, words); err != nil {
				t.Fatalf("scalar StepBatch: %v", err)
			}
			if _, err := msim.StepBatch(ctx, words); err != nil {
				t.Fatalf("multi StepBatch: %v", err)
			}
			if _, err := sim.StepIdleBatch(ctx, 700); err != nil {
				t.Fatalf("scalar StepIdleBatch: %v", err)
			}
			if _, err := msim.StepIdleBatch(ctx, 700); err != nil {
				t.Fatalf("multi StepIdleBatch: %v", err)
			}
			if err := sim.Finish(); err != nil {
				t.Fatalf("scalar Finish: %v", err)
			}
			if err := msim.Finish(); err != nil {
				t.Fatalf("multi Finish: %v", err)
			}

			label := node.Name + "/" + scheme
			sameSamples(t, label, sim.Samples(), msim.Samples(0))
			st, mt := sim.TotalEnergy(), msim.TotalEnergy(0)
			if math.Float64bits(st.Self) != math.Float64bits(mt.Self) ||
				math.Float64bits(st.CoupAdj) != math.Float64bits(mt.CoupAdj) ||
				math.Float64bits(st.CoupNonAdj) != math.Float64bits(mt.CoupNonAdj) {
				t.Fatalf("%s: total energy differs: %+v vs %+v", label, st, mt)
			}
			stemps, mtemps := sim.Temps(), msim.BusTemps(0)
			for i := range stemps {
				if math.Float64bits(stemps[i]) != math.Float64bits(mtemps[i]) {
					t.Fatalf("%s: wire %d temp differs: %v vs %v", label, i, stemps[i], mtemps[i])
				}
			}
			if sim.Cycles() != msim.Cycles() {
				t.Fatalf("%s: cycles differ: %d vs %d", label, sim.Cycles(), msim.Cycles())
			}
		}
	}
}

// TestMultiSimMatchesIndependentSims checks the K>1 struct-of-arrays path
// against K independent scalar simulators with inter-bus coupling
// disabled, at memo sizes 2^1 (an eviction on almost every miss), the
// default and off: every sample's energy and components, every
// cumulative total and per-line energy must be bit-identical, and the
// temperatures must agree to the thermal solvers' tolerance (the
// decoupled grid and the per-bus network step through different
// propagators).
func TestMultiSimMatchesIndependentSims(t *testing.T) {
	const buses = 4
	const rows = 2600
	const intervalCycles = 1000

	makeCfg := func(memo int) Config {
		enc, err := encoding.New("BI")
		if err != nil {
			t.Fatalf("encoding.New: %v", err)
		}
		return Config{
			Node:           itrs.N90,
			Encoder:        enc,
			CouplingDepth:  -1,
			IntervalCycles: intervalCycles,
			MemoSizeLog2:   memo,
		}
	}

	rng := rand.New(rand.NewSource(23))
	cols := make([][]uint32, buses)
	for k := range cols {
		cols[k] = make([]uint32, rows)
		for r := range cols[k] {
			if rng.Intn(3) == 0 {
				cols[k][r] = rng.Uint32()
			} else {
				cols[k][r] = uint32(r*8 + k)
			}
		}
	}

	ctx := context.Background()
	sims := make([]*Simulator, buses)
	for k := range sims {
		var err error
		if sims[k], err = New(makeCfg(0)); err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := sims[k].StepBatch(ctx, cols[k]); err != nil {
			t.Fatalf("scalar StepBatch: %v", err)
		}
		if err := sims[k].Finish(); err != nil {
			t.Fatalf("scalar Finish: %v", err)
		}
	}

	relClose := func(a, b, tol float64) bool {
		scale := math.Max(math.Abs(a), math.Abs(b))
		if scale == 0 {
			return a == b
		}
		return math.Abs(a-b) <= tol*scale
	}
	mlines := make([]energy.LineEnergy, sims[0].Width())
	slines := make([]energy.LineEnergy, sims[0].Width())
	for _, memo := range []int{1, 0, -1} {
		msim, err := NewMulti(MultiConfig{Config: makeCfg(memo), Buses: buses, DisableBusCoupling: true})
		if err != nil {
			t.Fatalf("NewMulti: %v", err)
		}
		if _, err := msim.StepBatch(ctx, interleave(cols)); err != nil {
			t.Fatalf("multi StepBatch: %v", err)
		}
		if err := msim.Finish(); err != nil {
			t.Fatalf("multi Finish: %v", err)
		}
		if st := msim.MemoStats(); memo == 1 && st.Misses <= st.Capacity {
			t.Fatalf("memo 2^1: %+v never evicted", st)
		}
		for k := 0; k < buses; k++ {
			name := fmt.Sprintf("memo %d bus %d", memo, k)
			if mt, st := msim.TotalEnergy(k), sims[k].TotalEnergy(); !sameEnergy(mt, st) {
				t.Fatalf("%s total energy: multi %+v scalar %+v", name, mt, st)
			}
			msim.LineEnergies(k, mlines)
			sims[k].LineEnergies(slines)
			for i := range mlines {
				if !sameEnergy(mlines[i], slines[i]) {
					t.Fatalf("%s line %d energy: multi %+v scalar %+v", name, i, mlines[i], slines[i])
				}
			}
			ms, ss := msim.Samples(k), sims[k].Samples()
			if len(ms) != len(ss) {
				t.Fatalf("%s sample counts: %d vs %d", name, len(ms), len(ss))
			}
			for i := range ms {
				x, y := ms[i], ss[i]
				if x.EndCycle != y.EndCycle || !sameEnergy(
					energy.LineEnergy{Self: x.Self, CoupAdj: x.CoupAdj, CoupNonAdj: x.CoupNonAdj},
					energy.LineEnergy{Self: y.Self, CoupAdj: y.CoupAdj, CoupNonAdj: y.CoupNonAdj}) ||
					math.Float64bits(x.Energy) != math.Float64bits(y.Energy) {
					t.Fatalf("%s sample %d: multi %+v scalar %+v", name, i, x, y)
				}
				// The decoupled grid and the per-bus network integrate the
				// same system with the same spectral method; temperatures
				// should agree far beyond thermal-model accuracy.
				if !relClose(x.MaxTemp, y.MaxTemp, 1e-9) {
					t.Fatalf("%s sample %d max temp: %v vs %v", name, i, x.MaxTemp, y.MaxTemp)
				}
			}
			mtemp, stemp := msim.BusTemps(k), sims[k].Temps()
			for j := range stemp {
				if !relClose(mtemp[j], stemp[j], 1e-9) {
					t.Fatalf("%s wire %d temp: %v vs %v", name, j, mtemp[j], stemp[j])
				}
			}
		}
	}

	// With coupling enabled, a hot bus must warm its quiet neighbour above
	// the neighbour's uncoupled temperature.
	coupled, err := NewMulti(MultiConfig{Config: makeCfg(0), Buses: 2})
	if err != nil {
		t.Fatalf("NewMulti coupled: %v", err)
	}
	uncoupled, err := NewMulti(MultiConfig{Config: makeCfg(0), Buses: 2, DisableBusCoupling: true})
	if err != nil {
		t.Fatalf("NewMulti uncoupled: %v", err)
	}
	hot := make([][]uint32, 2)
	hot[0] = make([]uint32, rows)
	hot[1] = make([]uint32, rows) // quiet: all zeros
	for r := range hot[0] {
		hot[0][r] = rng.Uint32()
	}
	slab := interleave(hot)
	if _, err := coupled.StepBatch(ctx, slab); err != nil {
		t.Fatalf("coupled StepBatch: %v", err)
	}
	if _, err := uncoupled.StepBatch(ctx, slab); err != nil {
		t.Fatalf("uncoupled StepBatch: %v", err)
	}
	if err := coupled.Finish(); err != nil {
		t.Fatalf("coupled Finish: %v", err)
	}
	if err := uncoupled.Finish(); err != nil {
		t.Fatalf("uncoupled Finish: %v", err)
	}
	cq := coupled.Grid().BusAvgTemp(1)
	uq := uncoupled.Grid().BusAvgTemp(1)
	if cq <= uq {
		t.Fatalf("coupled quiet bus %v K not warmer than uncoupled %v K", cq, uq)
	}
}

// TestMultiSimValidation covers constructor and stepping error paths.
func TestMultiSimValidation(t *testing.T) {
	if _, err := NewMulti(MultiConfig{Config: Config{Node: itrs.N130}, Buses: 0}); err == nil {
		t.Fatal("zero buses accepted")
	}
	m, err := NewMulti(MultiConfig{Config: Config{Node: itrs.N130, IntervalCycles: 100}, Buses: 3})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	if _, err := m.StepBatch(context.Background(), make([]uint32, 7)); err == nil {
		t.Fatal("non-multiple batch accepted")
	}
	if m.Buses() != 3 || m.Width() != 32 || m.Grid() == nil || m.Grid().Buses() != 3 {
		t.Fatalf("accessors: buses=%d width=%d", m.Buses(), m.Width())
	}
}

// TestMultiStepBatchAllocs is the multi-bus twin of TestStepBatchAllocs:
// once the shared memo is warm, the K-bus batch kernel — transpose,
// encode, count-aggregation, interval flushes and banded grid advances
// included — must not allocate.
func TestMultiStepBatchAllocs(t *testing.T) {
	// Address-like traffic (mostly strides, occasional jumps), phase-shifted
	// per bus: the same bounded transition diversity batchWords gives the
	// scalar gate, so the memo reaches a true steady state. Unbounded
	// random streams keep missing forever and each miss may regrow a memo
	// slot's line buffer.
	const buses, rows = 8, 4096
	cols := make([][]uint32, buses)
	for k := range cols {
		col := make([]uint32, rows)
		w, rng := uint32(0x4000_1000)+uint32(k)*0x100, uint32(7+k)
		for i := range col {
			rng = rng*1664525 + 1013904223
			switch rng % 8 {
			case 0:
				w = rng
			case 1: // hold
			default:
				w += 4
			}
			col[i] = w
		}
		cols[k] = col
	}
	slab := interleave(cols)
	m, err := NewMulti(MultiConfig{
		Config: Config{
			Node:           itrs.N130,
			CouplingDepth:  -1,
			IntervalCycles: 1000, // several flushes per measured run
			DropSamples:    true,
		},
		Buses: buses,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.StepBatch(ctx, slab); err != nil { // warm memo and dt cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.StepBatch(ctx, slab); err != nil {
			t.Fatal(err)
		}
		if _, err := m.StepIdleBatch(ctx, 3000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("multi StepBatch+StepIdleBatch allocate %v/op in steady state, want 0", allocs)
	}
}

// multiRun is one bus's figures captured after a MultiSim run, for
// replay comparisons.
type multiRun struct {
	total   energy.LineEnergy
	lines   []energy.LineEnergy
	temps   []float64
	samples []Sample
}

// TestMultiSimResetReplay pins Reset's contract at K > 1: the simulator
// returns to its post-NewMulti state (cycles, samples, totals, grid
// temperatures) while keeping the warm shared memo, so an identical
// replay reproduces the first run bit for bit and hits the memo where
// the first run missed. It also exercises the streaming callback,
// LineEnergies, MemoStats, Err and IntervalCycles on the K > 1 path.
func TestMultiSimResetReplay(t *testing.T) {
	const buses, rows, idle, interval = 4, 2300, 400, 1000
	enc, err := encoding.New("BI")
	if err != nil {
		t.Fatalf("encoding.New: %v", err)
	}
	msim, err := NewMulti(MultiConfig{
		Config: Config{Node: itrs.N130, Encoder: enc, CouplingDepth: -1, IntervalCycles: interval},
		Buses:  buses,
	})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	if msim.IntervalCycles() != interval {
		t.Fatalf("IntervalCycles = %d, want %d", msim.IntervalCycles(), interval)
	}

	type tagged struct {
		bus int
		s   Sample
	}
	var streamed []tagged
	msim.SetOnBusSample(func(bus int, s Sample) { streamed = append(streamed, tagged{bus, s}) })

	rng := rand.New(rand.NewSource(97))
	cols := make([][]uint32, buses)
	for k := range cols {
		cols[k] = make([]uint32, rows)
		for r := range cols[k] {
			if rng.Intn(4) == 0 {
				cols[k][r] = rng.Uint32()
			} else {
				cols[k][r] = uint32(r*4 + k*64)
			}
		}
	}
	slab := interleave(cols)
	ctx := context.Background()

	run := func() []multiRun {
		if _, err := msim.StepBatch(ctx, slab); err != nil {
			t.Fatalf("StepBatch: %v", err)
		}
		if _, err := msim.StepIdleBatch(ctx, idle); err != nil {
			t.Fatalf("StepIdleBatch: %v", err)
		}
		if err := msim.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		out := make([]multiRun, buses)
		for k := range out {
			lines := make([]energy.LineEnergy, msim.Width())
			msim.LineEnergies(k, lines)
			out[k] = multiRun{
				total:   msim.TotalEnergy(k),
				lines:   lines,
				temps:   msim.BusTemps(k),
				samples: append([]Sample(nil), msim.Samples(k)...),
			}
		}
		return out
	}

	first := run()
	if msim.Err() != nil {
		t.Fatalf("Err after clean run: %v", msim.Err())
	}
	st1 := msim.MemoStats()
	if st1.Hits == 0 || st1.Misses == 0 || st1.Entries == 0 {
		t.Fatalf("memo never exercised: %+v", st1)
	}
	firstStreamed := append([]tagged(nil), streamed...)
	streamed = streamed[:0]

	msim.Reset()
	if msim.Cycles() != 0 {
		t.Fatalf("cycles after Reset = %d", msim.Cycles())
	}
	for k := 0; k < buses; k++ {
		if len(msim.Samples(k)) != 0 {
			t.Fatalf("bus %d keeps %d samples after Reset", k, len(msim.Samples(k)))
		}
		if tot := msim.TotalEnergy(k); tot != (energy.LineEnergy{}) {
			t.Fatalf("bus %d keeps energy after Reset: %+v", k, tot)
		}
	}

	second := run()
	if msim.Cycles() != rows+idle {
		t.Fatalf("cycles after replay = %d, want %d", msim.Cycles(), rows+idle)
	}
	st2 := msim.MemoStats()
	if st2.Hits <= st1.Hits {
		t.Fatalf("warm replay gained no memo hits: %+v -> %+v", st1, st2)
	}

	for k := range first {
		f, s := first[k], second[k]
		if !sameEnergy(s.total, f.total) {
			t.Fatalf("bus %d replay totals drifted: %+v vs %+v", k, s.total, f.total)
		}
		for j := range f.lines {
			if !sameEnergy(s.lines[j], f.lines[j]) {
				t.Fatalf("bus %d line %d replay energy drifted", k, j)
			}
		}
		for j := range f.temps {
			if math.Float64bits(s.temps[j]) != math.Float64bits(f.temps[j]) {
				t.Fatalf("bus %d wire %d replay temp drifted: %v vs %v", k, j, s.temps[j], f.temps[j])
			}
		}
		sameSamples(t, fmt.Sprintf("bus %d replay", k), s.samples, f.samples)
	}

	// Streaming: every flush fires one callback per bus in bus order, and
	// the streamed samples are exactly the retained ones.
	for runIdx, got := range [][]tagged{firstStreamed, streamed} {
		want := 0
		for k := 0; k < buses; k++ {
			want += len(second[k].samples)
		}
		if len(got) != want {
			t.Fatalf("run %d streamed %d samples, retained %d", runIdx, len(got), want)
		}
		perBus := make([]int, buses)
		for i, g := range got {
			if g.bus != i%buses {
				t.Fatalf("run %d callback %d tagged bus %d, want %d", runIdx, i, g.bus, i%buses)
			}
			ref := second[g.bus].samples[perBus[g.bus]]
			if g.s.EndCycle != ref.EndCycle || math.Float64bits(g.s.Energy) != math.Float64bits(ref.Energy) {
				t.Fatalf("run %d bus %d streamed sample %d differs from retained",
					runIdx, g.bus, perBus[g.bus])
			}
			perBus[g.bus]++
		}
	}
}

// TestMultiSimK1Delegation covers the K == 1 accessors Reset, Err,
// IntervalCycles, LineEnergies, MemoStats and SetOnBusSample against an
// independently built Simulator on the same stream: every reading must
// match it, samples must be tagged bus 0, and a replay after Reset is
// bit-identical.
func TestMultiSimK1Delegation(t *testing.T) {
	cfg := Config{Node: itrs.N130, CouplingDepth: -1, IntervalCycles: 500}
	msim, err := NewMulti(MultiConfig{Config: cfg, Buses: 1})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if msim.IntervalCycles() != 500 {
		t.Fatalf("IntervalCycles = %d", msim.IntervalCycles())
	}
	var buses []int
	msim.SetOnBusSample(func(bus int, s Sample) { buses = append(buses, bus) })

	words := make([]uint32, 1300)
	for i := range words {
		words[i] = uint32(i * 4)
	}
	ctx := context.Background()
	if _, err := sim.StepBatch(ctx, words); err != nil {
		t.Fatalf("scalar StepBatch: %v", err)
	}
	if err := sim.Finish(); err != nil {
		t.Fatalf("scalar Finish: %v", err)
	}
	want := make([]energy.LineEnergy, sim.Width())
	sim.LineEnergies(want)
	run := func() (energy.LineEnergy, []energy.LineEnergy) {
		if _, err := msim.StepBatch(ctx, words); err != nil {
			t.Fatalf("StepBatch: %v", err)
		}
		if err := msim.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		lines := make([]energy.LineEnergy, msim.Width())
		msim.LineEnergies(0, lines)
		return msim.TotalEnergy(0), lines
	}

	tot1, lines1 := run()
	if msim.Err() != nil {
		t.Fatalf("Err: %v", msim.Err())
	}
	if msim.MemoStats() != sim.MemoStats() {
		t.Fatalf("MemoStats %+v, scalar %+v", msim.MemoStats(), sim.MemoStats())
	}
	if !sameEnergy(tot1, sim.TotalEnergy()) {
		t.Fatalf("total %+v, scalar %+v", tot1, sim.TotalEnergy())
	}
	for j := range want {
		if !sameEnergy(lines1[j], want[j]) {
			t.Fatalf("line %d: %+v, scalar %+v", j, lines1[j], want[j])
		}
	}
	if len(buses) != len(sim.Samples()) {
		t.Fatalf("K=1 streaming callback fired %d times for %d samples", len(buses), len(sim.Samples()))
	}
	for _, b := range buses {
		if b != 0 {
			t.Fatalf("K=1 sample tagged bus %d", b)
		}
	}

	msim.SetOnBusSample(nil)
	msim.Reset()
	if msim.Cycles() != 0 {
		t.Fatalf("cycles after Reset = %d", msim.Cycles())
	}
	callbacks := len(buses)
	tot2, lines2 := run()
	if len(buses) != callbacks {
		t.Fatal("cleared callback still fires")
	}
	if !sameEnergy(tot1, tot2) {
		t.Fatalf("K=1 replay after Reset not bit-identical: %+v vs %+v", tot1, tot2)
	}
	for j := range lines1 {
		if !sameEnergy(lines1[j], lines2[j]) {
			t.Fatalf("K=1 line %d replay differs", j)
		}
	}
}

// TestNewMultiRejectsOnSample: a MultiSim calls OnBusSample only, so a
// Config.OnSample would never fire; NewMulti must refuse it (at every K)
// and name the field to use instead.
func TestNewMultiRejectsOnSample(t *testing.T) {
	for _, buses := range []int{1, 4} {
		_, err := NewMulti(MultiConfig{
			Config: Config{Node: itrs.N130, IntervalCycles: 100, OnSample: func(Sample) {}},
			Buses:  buses,
		})
		if err == nil || !strings.Contains(err.Error(), "OnBusSample") {
			t.Fatalf("K %d: NewMulti with Config.OnSample = %v, want an error naming OnBusSample", buses, err)
		}
	}
}
