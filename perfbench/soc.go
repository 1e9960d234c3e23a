package main

import (
	"context"
	"fmt"
	"time"

	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/itrs"
	"nanobus/internal/thermal"
	"nanobus/internal/workload"
)

const (
	// socRows is one pass: lockstep cycles of the four captured streams.
	socRows = 262144
	// socBatchRows rows go into each StepBatch call, one step. Steps of
	// about a millisecond keep scheduler hiccups from setting the tail.
	socBatchRows = 32768
	// socInterval closes a sampling interval, and advances the thermal
	// grid, four times per step.
	socInterval  = 8192
	socSetupReps = 2
	// socChunkRows is MultiSim's chunk at four buses: each bus's column
	// is encoded and accumulated this many rows at a time.
	socChunkRows = 1024
	// socBench is expt.SoCMap's default benchmark.
	socBench = "swim"
	// socTol is the relative tolerance between the multi-bus kernel and
	// K scalar simulators: the multi-bus memo aggregates counts, so float
	// additions associate differently (agreement to ~1e-12 expected).
	socTol = 1e-9
)

var socNode = itrs.N130

// socConfig is the per-bus configuration expt.SoCMap's session runs:
// unencoded buses, every coupling pair, wire temperatures tracked.
func socConfig() core.Config {
	return core.Config{Node: socNode, CouplingDepth: -1, IntervalCycles: socInterval,
		TrackWireTemps: true, DropSamples: true}
}

// socState is the captured traffic and its multi-bus simulator, with the
// energy each measured pass added per bus.
type socState struct {
	slab    []uint32
	sim     *core.MultiSim
	samples uint64
	maxT    float64
	// prev is the cumulative per-bus energy after the latest pass;
	// passEnergy[p][k] is bus k's energy in pass p.
	prev       []energy.LineEnergy
	passEnergy [][]energy.LineEnergy
}

func socSetup(seed uint64, tr *tracer) (*socState, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	b, ok := workload.ByName(socBench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %s", socBench)
	}
	slab, err := captureSoC(b, captureOffset(seed, "soc/"+socBench), socRows, tr, root)
	if err != nil {
		return nil, err
	}
	st := &socState{slab: slab}
	sp := tr.begin("core.new", root)
	defer tr.end(sp)
	st.sim, err = core.NewMulti(core.MultiConfig{
		Config: socConfig(),
		Buses:  socBuses,
		OnBusSample: func(_ int, s core.Sample) {
			st.samples++
			if s.MaxTemp > st.maxT {
				st.maxT = s.MaxTemp
			}
		},
	})
	if err != nil {
		return nil, err
	}
	st.prev = socEnergies(st.sim)
	return st, nil
}

// sub returns the energy accrued between two cumulative readings.
func sub(after, before energy.LineEnergy) energy.LineEnergy {
	return energy.LineEnergy{Self: after.Self - before.Self, CoupAdj: after.CoupAdj - before.CoupAdj,
		CoupNonAdj: after.CoupNonAdj - before.CoupNonAdj}
}

// socEnergies reads every bus's cumulative energy.
func socEnergies(sim *core.MultiSim) []energy.LineEnergy {
	out := make([]energy.LineEnergy, socBuses)
	for k := range out {
		out[k] = sim.TotalEnergy(k)
	}
	return out
}

func runSoC(opts options, tr *tracer) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{counts: map[string]uint64{}, notes: map[string]any{}, stepsPerPass: socRows / socBatchRows}
	st, setupS, err := repeatSetup(socSetupReps, func() (*socState, error) { return socSetup(opts.seed, tr) }, nil)
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	slab := st.slab
	dg := newDigest()
	dg.words(slab)
	out.inputs = dg.sum()

	passWords := uint64(len(slab))
	out.passWords = passWords
	measure(opts, tr, out, func(n int) ([]float64, error) {
		m0, s0 := st.sim.MemoStats(), st.samples
		ps := tr.begin("soc.pass", 0)
		defer tr.end(ps)
		stepS := make([]float64, 0, socRows/socBatchRows)
		for r := 0; r < socRows; r += socBatchRows {
			sp := tr.begin("core.step", ps)
			t0 := time.Now()
			_, err := st.sim.StepBatch(ctx, slab[r*socBuses:(r+socBatchRows)*socBuses])
			stepS = append(stepS, secondsSince(t0))
			tr.end(sp)
			out.attempted++
			if err != nil {
				return nil, err
			}
			out.stepsMS = append(out.stepsMS, stepS[len(stepS)-1]*1e3)
		}
		cur := socEnergies(st.sim)
		delta := make([]energy.LineEnergy, socBuses)
		for k := range delta {
			delta[k] = sub(cur[k], st.prev[k])
		}
		st.passEnergy = append(st.passEnergy, delta)
		st.prev = cur
		if n == 0 {
			m1 := st.sim.MemoStats()
			out.counts["words"] = passWords
			out.counts["steps"] = socRows / socBatchRows
			out.counts["intervals"] = socRows / socInterval
			out.counts["samples"] = st.samples - s0
			out.counts["memo_hits"] = m1.Hits - m0.Hits
			out.counts["memo_misses"] = m1.Misses - m0.Misses
		}
		return stepS, nil
	})
	out.check(st.sim.Err() == nil, "multi-bus simulator error: %v", st.sim.Err())
	out.check(out.counts["samples"] == socBuses*socRows/socInterval,
		"pass 0 closed %d bus samples, want %d", out.counts["samples"], socBuses*socRows/socInterval)
	out.notes["peak_temp_k"] = st.maxT

	if err := socCheck(ctx, st, out); err != nil {
		return nil, err
	}
	if opts.trace {
		if err := socLayers(slab, out, tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// socCheck runs K independent scalar simulators over two passes of each
// bus's column: the multi-bus kernel's first pass must match their first
// pass, and every later pass (the same transitions from the same held
// word) their second, each bus's energy to rounding.
func socCheck(ctx context.Context, st *socState, out *outcome) error {
	col := make([]uint32, socRows)
	for k := 0; k < socBuses; k++ {
		for r := range col {
			col[r] = st.slab[r*socBuses+k]
		}
		sim, err := core.New(socConfig())
		if err != nil {
			return err
		}
		var ref [2]energy.LineEnergy
		for p := 0; p < 2; p++ {
			before := sim.TotalEnergy()
			for r := 0; r < socRows; r += socBatchRows {
				if _, err := sim.StepBatch(ctx, col[r:r+socBatchRows]); err != nil {
					return err
				}
			}
			ref[p] = sub(sim.TotalEnergy(), before)
		}
		for p, pe := range st.passEnergy {
			want := ref[min(p, 1)]
			got := pe[k]
			out.check(within(got.Self, want.Self, socTol) && within(got.CoupAdj, want.CoupAdj, socTol) &&
				within(got.CoupNonAdj, want.CoupNonAdj, socTol),
				"bus %d pass %d energy %g differs from the scalar simulator's %g", k, p, got.Total(), want.Total())
		}
	}
	out.notes["check_tolerance"] = fmt.Sprintf("relative %g per bus and energy component", socTol)
	return nil
}

// socLayers times the encoding, energy and thermal layers of the
// multi-bus kernel on their own over one pass and reconciles them with
// the StepBatch spans.
func socLayers(slab []uint32, out *outcome, tr *tracer) error {
	L := zeroLayers()
	enc := encoding.NewUnencoded()
	width := enc.Width()
	model, err := energyModel(socNode, width)
	if err != nil {
		return err
	}
	acc, err := energy.NewMultiAccumulator(model, socBuses)
	if err != nil {
		return err
	}
	if err := acc.EnableMemo(0); err != nil {
		return err
	}
	grid, err := thermal.NewGridFromNode(socNode, width, socBuses, thermal.GridNodeOptions{})
	if err != nil {
		return err
	}
	// The columns are transposed up front: the transpose is the kernel's
	// own work, left in the core.self residual.
	cols := make([][]uint32, socBuses)
	for k := range cols {
		cols[k] = make([]uint32, socRows)
		for r := range cols[k] {
			cols[k][r] = slab[r*socBuses+k]
		}
	}
	buf := make([]uint64, socChunkRows)
	power := make([]float64, socBuses*width)
	line := make([]energy.LineEnergy, width)
	dt := float64(socInterval) * socNode.CyclePeriod()
	decompose := tr.begin("decompose", 0)
	for round := 0; round < 2; round++ {
		was := tr.setOn(round == 1)
		for r := 0; r < socRows; r += socInterval {
			for c := r; c < r+socInterval; c += socChunkRows {
				for k := range cols {
					sp := tr.begin("encoding.unencoded", decompose)
					encoding.EncodeWords(enc, buf, cols[k][c:c+socChunkRows])
					tr.end(sp)
					sp = tr.begin("energy", decompose)
					acc.StepBus(k, buf)
					tr.end(sp)
				}
				acc.AddCycles(socChunkRows)
			}
			sp := tr.begin("energy", decompose)
			acc.Drain()
			tr.end(sp)
			for k := 0; k < socBuses; k++ {
				acc.BusLines(k, line)
				for i, le := range line {
					power[k*width+i] = le.Total() / dt / core.DefaultLength
				}
			}
			acc.Reset()
			sp = tr.begin("thermal.advance", decompose)
			err := grid.Advance(dt, power)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		tr.setOn(was)
	}
	tr.end(decompose)

	words := float64(len(slab))
	encD, energyD, thermD := tr.total("encoding.unencoded"), tr.total("energy"), tr.total("thermal.advance")
	L["encoding.unencoded.ns_per_word"] = float64(encD.Nanoseconds()) / words
	L["energy.ns_per_word"] = float64(energyD.Nanoseconds()) / words
	L["thermal.advances"] = float64(out.counts["intervals"])
	L["thermal.advance_us"] = us(thermD) / float64(out.counts["intervals"])
	step := tr.total("core.step") / time.Duration(out.tracedPasses)
	rec := reconcile("core.MultiSim.StepBatch per pass", step, "core.self", map[string]time.Duration{
		"encoding": encD, "energy": energyD, "thermal": thermD,
	})
	L["core.self_ns_per_word"] = rec.ResidualS * 1e9 / words
	h, m := out.counts["memo_hits"], out.counts["memo_misses"]
	L["energy.memo_hits"] = float64(h)
	L["energy.memo_misses"] = float64(m)
	L["energy.memo_hit_rate"] = hitRate(h, m)
	setup := setupReconcile(tr, socSetupReps, L)
	L["core.new_ms"] = tr.total("core.new").Seconds() * 1e3 / socSetupReps
	L["trace.overhead_pct"] = out.traceOverheadPct()
	out.reconcile = append(out.reconcile, rec, setup)
	out.layers = L
	return nil
}
