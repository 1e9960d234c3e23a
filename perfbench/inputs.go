package main

import (
	"fmt"
	"time"

	"nanobus/internal/cache"
	"nanobus/internal/capmodel"
	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/itrs"
	"nanobus/internal/repeater"
	"nanobus/internal/trace"
	"nanobus/internal/workload"
)

// offsetStep and offsetSlots bound the seed-chosen capture offset past a
// benchmark's warm-up: up to 63 x 4096 cycles, small beside the warm-ups
// (0.5M to 10M cycles), so set-up time barely depends on the seed.
const (
	offsetStep  = 4096
	offsetSlots = 64
)

// captureOffset is the seed's window offset for one benchmark.
func captureOffset(seed uint64, salt string) uint64 {
	return mix(seed, salt) % offsetSlots * offsetStep
}

// captureWindow records cycles cycles of b starting offset cycles past
// its warm-up, the way expt.Fig3 captures its windows.
func captureWindow(b workload.Benchmark, offset, cycles uint64, tr *tracer, parent int) ([]trace.Cycle, error) {
	sp := tr.begin("workload.capture", parent)
	defer tr.end(sp)
	src, err := b.NewWarmSource(b.WarmupCycles + offset)
	if err != nil {
		return nil, err
	}
	window := make([]trace.Cycle, 0, cycles)
	for uint64(len(window)) < cycles {
		c, ok := src.Next()
		if !ok {
			return nil, fmt.Errorf("%s trace ended after %d cycles", b.Name, len(window))
		}
		window = append(window, c)
	}
	return window, nil
}

// busWords extracts the words one bus ("ia" or "da") drives over a
// window, the same words a compiled tape of that bus holds.
func busWords(window []trace.Cycle, kind string) []uint32 {
	var out []uint32
	for _, c := range window {
		switch {
		case kind == "ia" && c.IValid:
			out = append(out, c.IAddr)
		case kind == "da" && c.DValid:
			out = append(out, c.DAddr)
		}
	}
	return out
}

// socBuses is the number of SoC buses: IA, DA, L2 fill, L2 writeback.
const socBuses = 4

// captureSoC records cycles lockstep rows of the four SoC bus streams of
// b, starting offset cycles past its warm-up: the processor's IA and DA
// buses plus the L2 fill and writeback queues of the paper's cache
// hierarchy, each idle bus holding its last word. It mirrors the capture
// expt.SoCMap performs before streaming a multi-bus session.
func captureSoC(b workload.Benchmark, offset, cycles uint64, tr *tracer, parent int) ([]uint32, error) {
	sp := tr.begin("workload.capture", parent)
	defer tr.end(sp)
	src, err := b.NewWarmSource(b.WarmupCycles + offset)
	if err != nil {
		return nil, err
	}
	h, err := cache.NewPaperHierarchy()
	if err != nil {
		return nil, err
	}
	var readQ, writeQ []uint32
	hook := func(blockAddr uint32, write bool) {
		if write {
			writeQ = append(writeQ, blockAddr)
		} else {
			readQ = append(readQ, blockAddr)
		}
	}
	h.IL1.MissHook = hook
	h.DL1.MissHook = hook
	slab := make([]uint32, int(cycles)*socBuses)
	var hold [socBuses]uint32
	for n := uint64(0); n < cycles; n++ {
		c, ok := src.Next()
		if !ok {
			return nil, fmt.Errorf("%s trace ended after %d cycles", b.Name, n)
		}
		if c.IValid {
			hold[0] = c.IAddr
			h.Fetch(c.IAddr)
		}
		if c.DValid {
			hold[1] = c.DAddr
			if c.DStore {
				h.Store(c.DAddr)
			} else {
				h.Load(c.DAddr)
			}
		}
		if len(readQ) > 0 {
			hold[2] = readQ[0]
			readQ = readQ[1:]
		}
		if len(writeQ) > 0 {
			hold[3] = writeQ[0]
			writeQ = writeQ[1:]
		}
		copy(slab[int(n)*socBuses:], hold[:])
	}
	return slab, nil
}

// energyModel rebuilds the energy model core.New derives for a bus of
// the given physical width at the default length with every coupling
// pair, so the traced run can time the energy layer on its own.
func energyModel(node itrs.Node, width int) (*energy.Model, error) {
	caps, err := capmodel.FromNode(node, width, capmodel.DefaultDecay(node))
	if err != nil {
		return nil, err
	}
	plan, err := repeater.InsertDefault(node, core.DefaultLength)
	if err != nil {
		return nil, err
	}
	return energy.New(energy.Config{Caps: caps, Length: core.DefaultLength, Vdd: node.Vdd, Crep: plan.Crep})
}

// secondsSince is the elapsed time since t0 in seconds.
func secondsSince(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// layerChunk is the word count the simulator encodes and accumulates per
// call (core's batch chunk), so layers timed alone see the kernel's cache
// footprint.
const layerChunk = 4096

// encodeAccumulate runs words through enc and then acc a chunk at a time,
// as Simulator.StepBatch does, recording one span per layer call under
// the names encName and energyName. buf holds at least layerChunk words.
func encodeAccumulate(tr *tracer, parent int, encName, energyName string,
	enc encoding.Encoder, acc *energy.Accumulator, words []uint32, buf []uint64) {
	for i := 0; i < len(words); i += layerChunk {
		chunk := words[i:min(i+layerChunk, len(words))]
		sp := tr.begin(encName, parent)
		encoding.EncodeWords(enc, buf[:len(chunk)], chunk)
		tr.end(sp)
		sp = tr.begin(energyName, parent)
		acc.StepBatch(buf[:len(chunk)])
		tr.end(sp)
	}
}

// energyAccumulator returns an accumulator over model with the default
// transition memo, the configuration every simulator here runs.
func energyAccumulator(model *energy.Model) *energy.Accumulator {
	acc := energy.NewAccumulator(model)
	// Size 0 selects the default memo, which EnableMemo always accepts.
	//nanolint:ignore droppederr the default memo size cannot be rejected
	_ = acc.EnableMemo(0)
	return acc
}
