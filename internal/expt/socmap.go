package expt

import (
	"context"
	"fmt"

	"nanobus/client"
	"nanobus/internal/cache"
	"nanobus/internal/itrs"
	"nanobus/internal/workload"
)

// The whole-SoC interconnect thermal map is the multi-bus headline
// scenario: four global buses of one floorplan — the processor's
// instruction and data address buses plus the L2 fill and writeback
// streams of the Sec. 5.1 cache hierarchy — run in lockstep through one
// nanobusd multi-bus session, laterally coupled on the top metal layer.
// The session streams one Sample per bus per closed interval, and the
// driver folds them into per-interval temperature frames: a thermal
// movie of the interconnect fabric, computed server-side by the banded
// propagator in a single kernel pass.

// SoCBusLabels name the scenario's buses in bus-index order.
var SoCBusLabels = [4]string{"IA", "DA", "L2R", "L2W"}

// SoCMapOptions configure the scenario.
type SoCMapOptions struct {
	// Benchmark defaults to swim.
	Benchmark string
	// Node defaults to 130 nm.
	Node itrs.Node
	// Cycles is the lockstep window; zero means 200,000.
	Cycles uint64
	// IntervalCycles is the sampling (and thermal-advance) interval;
	// zero means Cycles/10.
	IntervalCycles uint64
	// GapPitches is the lateral bus-to-bus gap in wire pitches; zero
	// means the thermal package default.
	GapPitches float64
	// DisableBusCoupling severs the lateral thermal resistance — the
	// isolation baseline for coupling A/B studies.
	DisableBusCoupling bool
}

// SoCMapFrame is one sampling interval of the thermal movie.
type SoCMapFrame struct {
	// EndCycle is the interval's closing cycle.
	EndCycle uint64
	// TempsK is the per-bus wire-temperature map at the interval close,
	// indexed [bus][wire].
	TempsK [][]float64
	// MaxTempK is the hottest wire across all buses.
	MaxTempK float64
}

// SoCMapResult is the folded scenario outcome.
type SoCMapResult struct {
	Benchmark string
	Node      string
	// Buses are the bus labels, index-aligned with every per-bus slice.
	Buses  []string
	Cycles uint64
	// Frames is the streamed thermal movie, one frame per closed
	// sampling interval.
	Frames []SoCMapFrame
	// TotalEnergyJ sums all buses; PerBusEnergyJ splits it.
	TotalEnergyJ  float64
	PerBusEnergyJ []float64
	// Duty is the fraction of cycles each bus carried a fresh word
	// (an idle bus holds its last word, dissipating nothing).
	Duty []float64
	// AvgTempK / MaxTempK / MaxBus / MaxWire summarize the final map.
	AvgTempK float64
	MaxTempK float64
	MaxBus   int
	MaxWire  int
	// TempsK is the final [bus][wire] temperature map.
	TempsK [][]float64
}

// MapSession is the slice of the client session surface SoCMap drives;
// *client.NBWPSession satisfies it directly, HTTPMapOpener adapts the
// HTTP streaming path.
type MapSession interface {
	StepBinary(ctx context.Context, words []uint32) (client.StepSummary, error)
	Result(ctx context.Context, finish bool) (*client.Result, error)
	Close(ctx context.Context) error
}

// MapOpener opens a multi-bus session with a streamed-sample callback on
// whichever transport the caller holds.
type MapOpener func(cfg client.SessionConfig, onSample func(client.Sample)) (MapSession, error)

// NBWPMapOpener adapts an NBWP connection: SAMPLE frames arrive on the
// connection's reader goroutine, strictly before the acks of the batches
// that closed them.
func NBWPMapOpener(ctx context.Context, nc *client.NBWPConn) MapOpener {
	return func(cfg client.SessionConfig, onSample func(client.Sample)) (MapSession, error) {
		return nc.Open(ctx, cfg, onSample)
	}
}

// HTTPMapOpener adapts the HTTP transport: each batch posts as an NDJSON
// ?stream=samples request, so samples stream back on the same response.
func HTTPMapOpener(ctx context.Context, c *client.Client) MapOpener {
	return func(cfg client.SessionConfig, onSample func(client.Sample)) (MapSession, error) {
		sess, err := c.CreateSession(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &httpMapSession{HTTPSession: sess, onSample: onSample}, nil
	}
}

// httpMapSession reroutes StepBinary through the sample-streaming NDJSON
// step endpoint.
type httpMapSession struct {
	*client.HTTPSession
	onSample func(client.Sample)
}

func (h *httpMapSession) StepBinary(ctx context.Context, words []uint32) (client.StepSummary, error) {
	body, err := client.BodyFromLines([]client.StepLine{{Words: words}})
	if err != nil {
		return client.StepSummary{}, err
	}
	return h.StepStream(ctx, body, h.onSample)
}

// SoCMap captures the floorplan's four traffic streams, drives them
// through one multi-bus session opened by open, and folds the streamed
// samples into the thermal movie. Figures are bit-identical across
// transports (both wires serve the same server-side documents).
func SoCMap(ctx context.Context, opts SoCMapOptions, open MapOpener) (*SoCMapResult, error) {
	if open == nil {
		return nil, fmt.Errorf("expt: socmap needs a session opener")
	}
	cycles := opts.Cycles
	if cycles == 0 {
		cycles = 200_000
	}
	interval := opts.IntervalCycles
	if interval == 0 {
		interval = cycles / 10
	}
	node := opts.Node
	if node.Name == "" {
		node = itrs.N130
	}
	slab, duty, err := captureSoCTraffic(opts.Benchmark, cycles)
	if err != nil {
		return nil, err
	}

	const (
		k         = len(SoCBusLabels)
		batchRows = 8192 // lockstep cycles per step request
	)
	depth := -1
	cfg := client.SessionConfig{
		Node:               node.Name,
		Buses:              k,
		IntervalCycles:     interval,
		CouplingDepth:      &depth,
		TrackWireTemps:     true,
		BusGapPitches:      opts.GapPitches,
		DisableBusCoupling: opts.DisableBusCoupling,
	}
	var frames []SoCMapFrame
	onSample := func(s client.Sample) {
		temps := append([]float64(nil), s.WireTempsK...)
		if n := len(frames); n == 0 || frames[n-1].EndCycle != s.EndCycle {
			frames = append(frames, SoCMapFrame{EndCycle: s.EndCycle, TempsK: make([][]float64, k)})
		}
		f := &frames[len(frames)-1]
		if s.Bus >= 0 && s.Bus < k {
			f.TempsK[s.Bus] = temps
		}
		if s.MaxTempK > f.MaxTempK {
			f.MaxTempK = s.MaxTempK
		}
	}
	sess, err := open(cfg, onSample)
	if err != nil {
		return nil, err
	}
	defer func() {
		//nanolint:ignore droppederr best-effort cleanup; the result already returned
		_ = sess.Close(context.WithoutCancel(ctx))
	}()

	rows := int(cycles)
	for r := 0; r < rows; r += batchRows {
		n := batchRows
		if left := rows - r; n > left {
			n = left
		}
		if _, err := sess.StepBinary(ctx, slab[r*k:(r+n)*k]); err != nil {
			return nil, fmt.Errorf("expt: socmap step: %w", err)
		}
	}
	res, err := sess.Result(ctx, true)
	if err != nil {
		return nil, fmt.Errorf("expt: socmap result: %w", err)
	}
	if res.Buses != k || len(res.PerBus) != k {
		return nil, fmt.Errorf("expt: socmap result has %d buses, want %d", res.Buses, k)
	}

	out := &SoCMapResult{
		Benchmark:     benchNameOrDefault(opts.Benchmark),
		Node:          node.Name,
		Buses:         SoCBusLabels[:],
		Cycles:        res.Cycles,
		Frames:        frames,
		TotalEnergyJ:  res.Total.TotalJ,
		PerBusEnergyJ: make([]float64, k),
		Duty:          duty,
		AvgTempK:      res.AvgTempK,
		MaxTempK:      res.MaxTempK,
		MaxBus:        res.MaxBus,
		MaxWire:       res.MaxWire,
		TempsK:        make([][]float64, k),
	}
	for i, pb := range res.PerBus {
		out.PerBusEnergyJ[i] = pb.Total.TotalJ
		out.TempsK[i] = pb.TempsK
	}
	return out, nil
}

func benchNameOrDefault(name string) string {
	if name == "" {
		return "swim"
	}
	return name
}

// captureSoCTraffic replays the benchmark through the paper's cache
// hierarchy and interleaves the four bus streams cycle-major, one word
// per bus per cycle. An idle bus holds its last word (zero transitions);
// the L2 fill and writeback buses drain their miss queues one block
// address per cycle, like the single-channel L2 bus of the L2Bus study.
func captureSoCTraffic(benchName string, cycles uint64) (slab []uint32, duty []float64, err error) {
	b, ok := workload.ByName(benchNameOrDefault(benchName))
	if !ok {
		return nil, nil, fmt.Errorf("expt: unknown benchmark %q", benchName)
	}
	src, err := b.NewWarmSource(b.WarmupCycles)
	if err != nil {
		return nil, nil, err
	}
	h, err := cache.NewPaperHierarchy()
	if err != nil {
		return nil, nil, err
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

	const k = len(SoCBusLabels)
	slab = make([]uint32, int(cycles)*k)
	fresh := make([]uint64, k)
	var hold [k]uint32
	for n := uint64(0); n < cycles; n++ {
		c, ok := src.Next()
		if !ok {
			return nil, nil, fmt.Errorf("expt: %s trace ended after %d cycles", b.Name, n)
		}
		if c.IValid {
			hold[0] = c.IAddr
			fresh[0]++
			h.Fetch(c.IAddr)
		}
		if c.DValid {
			hold[1] = c.DAddr
			fresh[1]++
			if c.DStore {
				h.Store(c.DAddr)
			} else {
				h.Load(c.DAddr)
			}
		}
		if len(readQ) > 0 {
			hold[2] = readQ[0]
			readQ = readQ[1:]
			fresh[2]++
		}
		if len(writeQ) > 0 {
			hold[3] = writeQ[0]
			writeQ = writeQ[1:]
			fresh[3]++
		}
		copy(slab[int(n)*k:], hold[:])
	}
	duty = make([]float64, k)
	for i, f := range fresh {
		duty[i] = float64(f) / float64(cycles)
	}
	return slab, duty, nil
}
