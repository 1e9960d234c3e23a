package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/thermal"
	"nanobus/internal/trace"
	"nanobus/internal/workload"
)

const (
	// fig3Cycles is each benchmark's capture window. One pass replays
	// 8 windows through 32 simulators in about half a second of host
	// time, so a run holds many whole passes and each replay's median
	// over them shrugs off bursts of host noise.
	fig3Cycles = 10_000
	// fig3SetupReps set-ups per process; setup_s is the median over every
	// set-up of a run's processes.
	fig3SetupReps = 1
	// fig3CheckCells cells per run are re-run on the direct kernel.
	fig3CheckCells = 4
)

// fig3Bench is one benchmark's captured window and compiled tapes.
type fig3Bench struct {
	name   string
	window []trace.Cycle
	ia, da *core.Tape
}

// fig3Job is one (node, scheme, bus) configuration of the study.
type fig3Job struct {
	node   itrs.Node
	scheme string
	bus    string
	sim    *core.Simulator
}

// fig3Cell is one bar of Fig. 3: the energies expt.Fig3 reports.
type fig3Cell struct {
	self, nn, all float64
	cycles        uint64
}

type fig3State struct {
	benches []fig3Bench
	jobs    []fig3Job
}

func (st *fig3State) tape(job fig3Job, bi int) *core.Tape {
	if job.bus == "IA" {
		return st.benches[bi].ia
	}
	return st.benches[bi].da
}

// fig3Setup captures every benchmark's window, compiles its IA and DA
// tapes and builds the 32 simulators, in expt.Fig3's job order.
func fig3Setup(seed uint64, tr *tracer) (*fig3State, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	st := &fig3State{}
	for _, b := range workload.All() {
		w, err := captureWindow(b, captureOffset(seed, "fig3/"+b.Name), fig3Cycles, tr, root)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("core.compile", root)
		ia, err := core.CompileTape(trace.NewSliceSource(w), "ia", fig3Cycles)
		if err != nil {
			return nil, err
		}
		da, err := core.CompileTape(trace.NewSliceSource(w), "da", fig3Cycles)
		if err != nil {
			return nil, err
		}
		tr.end(sp)
		st.benches = append(st.benches, fig3Bench{name: b.Name, window: w, ia: ia, da: da})
	}
	for _, node := range itrs.Nodes() {
		for _, scheme := range encoding.PaperSchemes() {
			for _, bus := range []string{"DA", "IA"} {
				sim, err := newFig3Sim(node, scheme, 0, tr, root)
				if err != nil {
					return nil, err
				}
				st.jobs = append(st.jobs, fig3Job{node: node, scheme: scheme, bus: bus, sim: sim})
			}
		}
	}
	return st, nil
}

// newFig3Sim builds a simulator the way expt's sweep cache does for
// Fig. 3: full coupling model, samples dropped, memo sized by memoLog2.
func newFig3Sim(node itrs.Node, scheme string, memoLog2 int, tr *tracer, parent int) (*core.Simulator, error) {
	enc, err := encoding.New(scheme)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("core.new", parent)
	defer tr.end(sp)
	return core.New(core.Config{Node: node, Encoder: enc, CouplingDepth: -1, DropSamples: true, MemoSizeLog2: memoLog2})
}

// replay runs one tape through a simulator exactly as expt.Fig3 does.
func replay(ctx context.Context, sim *core.Simulator, tp *core.Tape, tr *tracer, parent int) (fig3Cell, error) {
	sim.Reset()
	sp := tr.begin("core.play", parent)
	err := sim.PlayTape(ctx, tp)
	if err == nil {
		err = sim.Finish()
	}
	tr.end(sp)
	if err != nil {
		return fig3Cell{}, err
	}
	tot := sim.TotalEnergy()
	return fig3Cell{self: tot.Self, nn: tot.Self + tot.CoupAdj, all: tot.Total(), cycles: sim.Cycles()}, nil
}

// fig3Pass replays every tape through every simulator, config-major,
// writing each replay's cell into cells and its time into replayS.
func fig3Pass(ctx context.Context, st *fig3State, cells []fig3Cell, replayS []float64, tr *tracer) error {
	nb := len(st.benches)
	pass := tr.begin("fig3.pass", 0)
	defer tr.end(pass)
	for ji, job := range st.jobs {
		for bi := range st.benches {
			t0 := time.Now()
			c, err := replay(ctx, job.sim, st.tape(job, bi), tr, pass)
			replayS[ji*nb+bi] = secondsSince(t0)
			if err != nil {
				return fmt.Errorf("%s/%s/%s/%s: %w", job.bus, job.node.Name, job.scheme, st.benches[bi].name, err)
			}
			cells[ji*nb+bi] = c
		}
	}
	return nil
}

func cellsEqual(a, b []fig3Cell) bool {
	for i := range a {
		if !sameBits(a[i].self, b[i].self) || !sameBits(a[i].nn, b[i].nn) ||
			!sameBits(a[i].all, b[i].all) || a[i].cycles != b[i].cycles {
			return false
		}
	}
	return true
}

// memoByBus sums the simulators' memo counters per bus.
func (st *fig3State) memoByBus() (hits, misses map[string]uint64) {
	hits, misses = map[string]uint64{}, map[string]uint64{}
	for _, j := range st.jobs {
		ms := j.sim.MemoStats()
		hits[j.bus] += ms.Hits
		misses[j.bus] += ms.Misses
	}
	return hits, misses
}

func runFig3(opts options, tr *tracer) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{counts: map[string]uint64{}, notes: map[string]any{}}
	st, setupS, err := repeatSetup(fig3SetupReps, func() (*fig3State, error) { return fig3Setup(opts.seed, tr) }, nil)
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	out.stepsPerPass = len(st.jobs)

	nb := len(st.benches)
	d := newDigest()
	var passWords uint64
	for _, b := range st.benches {
		d.str(b.name)
		d.words(busWords(b.window, "ia"))
		d.words(busWords(b.window, "da"))
	}
	for _, j := range st.jobs {
		for bi := range st.benches {
			passWords += st.tape(j, bi).Words()
		}
	}
	out.inputs = d.sum()
	out.passWords = passWords

	// The warm-up pass fills the transition memos, as a shared sweep
	// cache would have, and gives the reference cells every later pass
	// must reproduce bit for bit.
	ref := make([]fig3Cell, len(st.jobs)*nb)
	tr.setOn(false)
	if err := fig3Pass(ctx, st, ref, make([]float64, len(ref)), tr); err != nil {
		return nil, err
	}
	cells := make([]fig3Cell, len(ref))
	measure(opts, tr, out, func(n int) ([]float64, error) {
		h0, m0 := st.memoByBus()
		replayS := make([]float64, len(cells))
		err := fig3Pass(ctx, st, cells, replayS, tr)
		out.attempted += len(cells)
		if err != nil {
			return nil, err
		}
		// A step is one configuration job: a simulator replaying every
		// benchmark's tape.
		for ji := range st.jobs {
			var s float64
			for _, r := range replayS[ji*nb : (ji+1)*nb] {
				s += r
			}
			out.stepsMS = append(out.stepsMS, s*1e3)
		}
		out.check(cellsEqual(cells, ref), "pass %d cells differ from the warm-up pass", n)
		if n == 0 {
			h1, m1 := st.memoByBus()
			for _, bus := range []string{"IA", "DA"} {
				b := strings.ToLower(bus)
				out.counts["memo_hits."+b] = h1[bus] - h0[bus]
				out.counts["memo_misses."+b] = m1[bus] - m0[bus]
			}
			out.counts["words"] = passWords
			out.counts["replays"] = uint64(len(cells))
			// Each replay closes its partial interval at Finish; the windows
			// are shorter than the default 100K-cycle interval.
			out.counts["intervals"] = uint64(len(cells)) * uint64(math.Ceil(float64(fig3Cycles)/float64(core.DefaultIntervalCycles)))
		}
		return replayS, nil
	})

	// Sampled cells must match the memo-disabled direct kernel bit for
	// bit: the memo is documented bit-identical.
	for i := 0; i < fig3CheckCells; i++ {
		idx := int(mix(opts.seed, fmt.Sprintf("fig3/check/%d", i)) % uint64(len(ref)))
		job, bi := st.jobs[idx/nb], idx%nb
		sim, err := newFig3Sim(job.node, job.scheme, -1, nil, 0)
		if err != nil {
			return nil, err
		}
		c, err := replay(ctx, sim, st.tape(job, bi), nil, 0)
		out.check(err == nil && cellsEqual([]fig3Cell{c}, ref[idx:idx+1]),
			"cell %s/%s/%s/%s differs from the direct kernel (err %v)", job.bus, job.node.Name, job.scheme, st.benches[bi].name, err)
	}
	out.notes["check_tolerance"] = "bit-identical (Float64bits)"
	out.notes["cells_per_pass"] = len(cells)

	if opts.trace {
		if err := fig3Layers(st, ref, out, tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fig3Layers times the encoding, energy and thermal layers on their own
// over the inputs of one pass and reconciles them with the replay spans.
func fig3Layers(st *fig3State, ref []fig3Cell, out *outcome, tr *tracer) error {
	nb := len(st.benches)
	L := zeroLayers()
	words := map[string][]uint32{}
	for _, b := range st.benches {
		words["IA/"+b.name] = busWords(b.window, "ia")
		words["DA/"+b.name] = busWords(b.window, "da")
	}
	busWordsN := map[string]float64{}
	schemeWords := map[string]float64{}
	decompose := tr.begin("decompose", 0)
	for ji, job := range st.jobs {
		enc, err := encoding.New(job.scheme)
		if err != nil {
			return err
		}
		model, err := energyModel(job.node, enc.Width())
		if err != nil {
			return err
		}
		acc := energyAccumulator(model)
		net, err := thermal.NewFromNode(job.node, enc.Width(), thermal.NodeOptions{})
		if err != nil {
			return err
		}
		scheme := strings.ToLower(job.scheme)
		bus := strings.ToLower(job.bus)
		buf := make([]uint64, layerChunk)
		power := make([]float64, enc.Width())
		// The first round warms the memo like the warm-up pass did; the
		// second is traced.
		for round := 0; round < 2; round++ {
			was := tr.setOn(round == 1)
			for bi, b := range st.benches {
				ws := words[job.bus+"/"+b.name]
				enc.Reset()
				acc.ResetAll()
				encodeAccumulate(tr, decompose, "encoding."+scheme+"."+bus, "energy."+bus, enc, acc, ws, buf)
				dt := float64(fig3Cycles) * job.node.CyclePeriod()
				for i := range power {
					power[i] = acc.Line(i).Total() / dt / core.DefaultLength
				}
				sp := tr.begin("thermal.advance", decompose)
				err := net.Advance(dt, power)
				tr.end(sp)
				if err != nil {
					return err
				}
				if round == 1 {
					busWordsN[bus] += float64(len(ws))
					schemeWords[scheme] += float64(len(ws))
					// The rebuilt model must be the simulator's: same energy
					// to rounding (the simulator sums per interval).
					out.check(within(acc.Total().Total(), ref[ji*nb+bi].all, 1e-9),
						"rebuilt energy model disagrees with %s/%s/%s", job.bus, job.node.Name, job.scheme)
				}
			}
			net.Reset()
			tr.setOn(was)
		}
	}
	tr.end(decompose)

	ns := func(d time.Duration, n float64) float64 {
		if n <= 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / n
	}
	var encD, energyD time.Duration
	for _, s := range []string{"bi", "oebi", "cbi", "unencoded"} {
		ia, da := tr.total("encoding."+s+".ia"), tr.total("encoding."+s+".da")
		// Every scheme replays the same words, so the bus word counts are
		// shared; each scheme covers a quarter of them.
		L["encoding."+s+".ns_per_word.ia"] = ns(ia, busWordsN["ia"]/4)
		L["encoding."+s+".ns_per_word.da"] = ns(da, busWordsN["da"]/4)
		L["encoding."+s+".ns_per_word"] = ns(ia+da, schemeWords[s])
		encD += ia + da
	}
	eIA, eDA := tr.total("energy.ia"), tr.total("energy.da")
	energyD = eIA + eDA
	L["energy.ns_per_word.ia"] = ns(eIA, busWordsN["ia"])
	L["energy.ns_per_word.da"] = ns(eDA, busWordsN["da"])
	L["energy.ns_per_word"] = ns(energyD, busWordsN["ia"]+busWordsN["da"])
	thermD := tr.total("thermal.advance")
	L["thermal.advances"] = float64(out.counts["intervals"])
	L["thermal.advance_us"] = ns(thermD, float64(len(ref))) / 1e3

	var hits, misses uint64
	for _, b := range []string{"ia", "da"} {
		h, m := out.counts["memo_hits."+b], out.counts["memo_misses."+b]
		L["energy.memo_hits."+b] = float64(h)
		L["energy.memo_misses."+b] = float64(m)
		L["energy.memo_hit_rate."+b] = hitRate(h, m)
		hits += h
		misses += m
	}
	L["energy.memo_hits"] = float64(hits)
	L["energy.memo_misses"] = float64(misses)
	L["energy.memo_hit_rate"] = hitRate(hits, misses)

	play := tr.total("core.play") / time.Duration(out.tracedPasses)
	rec := reconcile("core.play per pass", play, "core.self", map[string]time.Duration{
		"encoding": encD, "energy": energyD, "thermal": thermD,
	})
	L["core.self_ns_per_word"] = rec.ResidualS * 1e9 / float64(out.passWords)
	out.reconcile = append(out.reconcile, rec, setupReconcile(tr, fig3SetupReps, L))
	L["core.new_ms"] = tr.total("core.new").Seconds() * 1e3 / float64(fig3SetupReps*len(st.jobs))
	L["trace.overhead_pct"] = out.traceOverheadPct()
	out.layers = L
	return nil
}
