package core

import (
	"context"
	"fmt"

	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/faultinject"
	"nanobus/internal/thermal"
)

// MultiConfig assembles a MultiSim: K identically-configured buses (one
// shared technology node, encoder scheme, coupling model and sampling
// interval) coupled through a banded inter-bus thermal network.
type MultiConfig struct {
	// Config is the shared per-bus configuration. Config.Encoder names the
	// scheme; each bus gets its own instance (encoder state is per bus).
	// Config.OnSample is ignored — use OnBusSample.
	Config
	// Buses is the number of buses K (>= 1). K == 1 runs the scalar
	// Simulator pipeline unchanged (bit-identical results).
	Buses int
	// BusGapPitches is the edge-to-edge gap between adjacent buses in
	// units of the node's wire pitch; zero means
	// thermal.DefaultBusGapPitches.
	BusGapPitches float64
	// DisableBusCoupling severs the lateral inter-bus conductance: the
	// grid degenerates to K independent per-bus networks (ablation and
	// equivalence testing).
	DisableBusCoupling bool
	// OnBusSample, when non-nil, receives every interval sample as it
	// closes, tagged with its bus index.
	OnBusSample func(bus int, s Sample)
}

// MultiSim drives K buses in lockstep through one struct-of-arrays
// kernel: one shared transition-key memo probed across all buses, one
// contiguous [K*W] power slab, and one banded thermal grid advanced once
// per sampling interval for the whole die region.
//
// K == 1 delegates to an inner *Simulator. For K > 1 each bus's window is
// exact pair-pattern counts, read out as the scalar Simulator reads its
// own: every sample energy, cumulative total and per-line energy of bus k
// is bit-identical (Float64bits) to a scalar Simulator run on bus k's
// column, whatever the memo size and whenever the run is snapshotted.
// Temperatures differ, because the buses share one thermal grid.
type MultiSim struct {
	cfg      MultiConfig
	buses    int
	width    int
	interval uint64
	length   float64

	// K == 1: the scalar pipeline, nothing else populated.
	single *Simulator

	// K > 1: struct-of-arrays state.
	encs []encoding.Encoder
	acc  *energy.MultiAccumulator
	grid *thermal.Grid

	cycleInInterval uint64
	cycles          uint64
	samples         [][]Sample // per bus

	lineBuf     []energy.LineEnergy // [W] per-bus flush scratch
	windows     []energy.LineEnergy // [K] flush scratch: each bus's interval energy
	power       []float64           // [K*W] bus-major interval power slab
	encBuf      []uint64            // [chunkRows] per-bus physical words
	colBuf      []uint32            // [chunkRows] per-bus data-word column
	chunkRows   int
	rawEncode   bool                // Unencoded scheme: fuse transpose and encode
	lineTotals  []energy.LineEnergy // [K*W] cumulative per-line energies
	totalEnergy []energy.LineEnergy // [K] cumulative per-bus energies

	err error
}

// NewMulti builds a K-bus simulator. The encoder named by
// cfg.Config.Encoder must come from the encoding registry (each bus needs
// its own instance); custom encoder implementations are limited to K == 1.
func NewMulti(cfg MultiConfig) (*MultiSim, error) {
	if cfg.Buses < 1 {
		return nil, fmt.Errorf("core: multi-sim buses %d < 1", cfg.Buses)
	}
	m := &MultiSim{cfg: cfg, buses: cfg.Buses}

	if cfg.Buses == 1 {
		inner := cfg.Config
		if cfg.OnBusSample != nil {
			fn := cfg.OnBusSample
			inner.OnSample = func(s Sample) { fn(0, s) }
		} else {
			inner.OnSample = nil
		}
		s, err := New(inner)
		if err != nil {
			return nil, err
		}
		m.single = s
		m.width = s.Width()
		m.interval = s.interval
		m.length = s.length
		return m, nil
	}

	if cfg.Adaptive != nil {
		// The SoA kernel drives per-bus registry encoders; threading the
		// controller's padded pair and per-bus decisions through it is
		// future work. Without this guard the probe below would silently
		// flatten the controller onto its base scheme.
		return nil, fmt.Errorf("core: multi-sim does not support the adaptive controller; run scalar sessions")
	}

	// Probe the shared configuration through the scalar constructor once,
	// then rebuild the pieces in struct-of-arrays form. The probe also
	// hands us resolved defaults (length, interval) and the energy model.
	// Its memo would go unused: the shared one is built below.
	probeCfg := cfg.Config
	probeCfg.OnSample = nil
	probeCfg.MemoSizeLog2 = -1
	probe, err := New(probeCfg)
	if err != nil {
		return nil, err
	}
	model := probe.acc.Model()
	m.width = probe.Width()
	m.interval = probe.interval
	m.length = probe.length

	m.encs = make([]encoding.Encoder, cfg.Buses)
	name := probe.enc.Name()
	for k := range m.encs {
		e, err := encoding.New(name)
		if err != nil {
			return nil, fmt.Errorf("core: multi-sim needs a registry encoder (per-bus instances): %w", err)
		}
		m.encs[k] = e
	}
	_, m.rawEncode = m.encs[0].(*encoding.Unencoded)

	acc, err := energy.NewMultiAccumulator(model, cfg.Buses)
	if err != nil {
		return nil, err
	}
	if cfg.MemoSizeLog2 >= 0 {
		if err := acc.EnableMemo(cfg.MemoSizeLog2); err != nil {
			return nil, err
		}
	}
	m.acc = acc

	grid, err := thermal.NewGridFromNode(cfg.Node, m.width, cfg.Buses, thermal.GridNodeOptions{
		NodeOptions:        cfg.Thermal,
		BusGapPitches:      cfg.BusGapPitches,
		DisableBusCoupling: cfg.DisableBusCoupling,
	})
	if err != nil {
		return nil, err
	}
	m.grid = grid

	m.samples = make([][]Sample, cfg.Buses)
	m.lineBuf = make([]energy.LineEnergy, m.width)
	m.windows = make([]energy.LineEnergy, cfg.Buses)
	m.power = make([]float64, cfg.Buses*m.width)
	m.lineTotals = make([]energy.LineEnergy, cfg.Buses*m.width)
	m.totalEnergy = make([]energy.LineEnergy, cfg.Buses)
	// Size chunks so one round's per-bus working set (the transposed
	// column plus the encode buffer) stays cache-resident while keeping
	// enough rows per chunk that the per-bus dispatch overhead (encoder
	// interface call, StepBus prologue) amortizes away even at large K.
	m.chunkRows = batchChunk / cfg.Buses
	if m.chunkRows < 1024 {
		m.chunkRows = 1024
	}
	m.encBuf = make([]uint64, m.chunkRows)
	m.colBuf = make([]uint32, m.chunkRows)
	return m, nil
}

// Buses returns K.
func (m *MultiSim) Buses() int { return m.buses }

// Width returns the per-bus physical width.
func (m *MultiSim) Width() int { return m.width }

// IntervalCycles returns the sampling interval length in cycles.
func (m *MultiSim) IntervalCycles() uint64 { return m.interval }

// Grid exposes the banded thermal grid (nil when K == 1; use the inner
// simulator's Network then).
func (m *MultiSim) Grid() *thermal.Grid { return m.grid }

// Single returns the inner scalar simulator when K == 1, else nil.
func (m *MultiSim) Single() *Simulator { return m.single }

// StepBatch drives every bus one word per cycle from an interleaved
// cycle-major slab: words[r*K + k] is bus k's word on relative cycle r,
// so len(words) must be a multiple of K. It checks ctx each time a
// sampling interval closes and returns the number of whole cycles (rows)
// consumed plus the first error hit, mirroring Simulator.StepBatch.
//
//nanolint:hotpath multi-bus batch kernel; steady state allocates nothing
func (m *MultiSim) StepBatch(ctx context.Context, words []uint32) (int, error) {
	if m.single != nil {
		return m.single.StepBatch(ctx, words)
	}
	if m.err != nil {
		return 0, m.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(words)%m.buses != 0 {
		return 0, fmt.Errorf("core: multi-sim batch of %d words is not a multiple of %d buses", len(words), m.buses)
	}
	rows := len(words) / m.buses
	done := 0
	for done < rows {
		n := rows - done
		if left := int(m.interval - m.cycleInInterval); n > left {
			n = left
		}
		if n > m.chunkRows {
			n = m.chunkRows
		}
		base := done * m.buses
		for k := 0; k < m.buses; k++ {
			// Transpose bus k's column out of the interleaved slab so the
			// encoder and accumulator see a contiguous stream. The
			// Unencoded scheme is a stateless widening, so its encode fuses
			// into the transpose and skips one buffer pass.
			enc := m.encBuf[:n]
			src := words[base+k:]
			if m.rawEncode {
				for r := 0; r < n; r++ {
					enc[r] = uint64(src[r*m.buses])
				}
			} else {
				col := m.colBuf[:n]
				for r := 0; r < n; r++ {
					col[r] = src[r*m.buses]
				}
				encoding.EncodeWords(m.encs[k], enc, col)
			}
			m.acc.StepBus(k, enc)
		}
		m.acc.AddCycles(uint64(n))
		m.cycles += uint64(n)
		m.cycleInInterval += uint64(n)
		done += n
		if m.cycleInInterval >= m.interval {
			m.flush(m.cycleInInterval)
			if m.err != nil {
				return done, m.err
			}
			if err := ctx.Err(); err != nil {
				return done, err
			}
		}
	}
	return rows, nil
}

// StepIdleBatch advances n idle cycles on every bus, with the same
// interval/ctx semantics as StepBatch.
func (m *MultiSim) StepIdleBatch(ctx context.Context, n uint64) (uint64, error) {
	if m.single != nil {
		return m.single.StepIdleBatch(ctx, n)
	}
	if m.err != nil {
		return 0, m.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var done uint64
	for done < n {
		k := n - done
		if left := m.interval - m.cycleInInterval; k > left {
			k = left
		}
		m.acc.IdleN(k)
		m.cycles += k
		m.cycleInInterval += k
		done += k
		if m.cycleInInterval >= m.interval {
			m.flush(m.cycleInInterval)
			if m.err != nil {
				return done, m.err
			}
			if err := ctx.Err(); err != nil {
				return done, err
			}
		}
	}
	return n, nil
}

// flush closes the current interval of n cycles for all K buses: read
// each bus's window (the first read drains the shared memo) as the
// scalar flush does into one [K*W] power slab, advance the banded grid
// once, and emit one sample per bus.
func (m *MultiSim) flush(n uint64) {
	if n == 0 {
		return
	}
	if err := faultinject.Hit("core.interval.flush"); err != nil {
		if m.err == nil {
			m.err = fmt.Errorf("%w: interval flush: %w", ErrPoisoned, err)
		}
		m.acc.Reset()
		m.cycleInInterval = 0
		return
	}
	dt := float64(n) * m.cfg.Node.CyclePeriod()
	w := m.width
	for k := 0; k < m.buses; k++ {
		tot := m.acc.BusLines(k, m.lineBuf)
		m.windows[k] = tot
		for i := range m.lineBuf {
			le := m.lineBuf[i]
			m.lineTotals[k*w+i].Self += le.Self
			m.lineTotals[k*w+i].CoupAdj += le.CoupAdj
			m.lineTotals[k*w+i].CoupNonAdj += le.CoupNonAdj
			m.power[k*w+i] = le.Total() / dt / m.length
		}
		m.totalEnergy[k].Self += tot.Self
		m.totalEnergy[k].CoupAdj += tot.CoupAdj
		m.totalEnergy[k].CoupNonAdj += tot.CoupNonAdj
	}

	if err := m.grid.Advance(dt, m.power); err != nil {
		if m.err == nil {
			m.err = fmt.Errorf("%w: thermal advance: %w", ErrPoisoned, err)
		}
		m.acc.Reset()
		m.cycleInInterval = 0
		return
	}

	for k := 0; k < m.buses; k++ {
		tot := m.windows[k]
		maxT, maxW := m.grid.BusMaxTemp(k)
		sample := Sample{
			EndCycle:   m.cycles,
			Energy:     tot.Total(),
			Self:       tot.Self,
			CoupAdj:    tot.CoupAdj,
			CoupNonAdj: tot.CoupNonAdj,
			AvgTemp:    m.grid.BusAvgTemp(k),
			MaxTemp:    maxT,
			MaxWire:    maxW,
		}
		if m.cfg.TrackWireTemps {
			sample.WireTemps = m.grid.BusTemps(k, nil)
		}
		if m.cfg.OnBusSample != nil {
			m.cfg.OnBusSample(k, sample)
		}
		if !m.cfg.DropSamples {
			m.samples[k] = append(m.samples[k], sample)
		}
	}
	m.acc.Reset()
	m.cycleInInterval = 0
}

// Finish closes any partial interval; call once after the last cycle.
func (m *MultiSim) Finish() error {
	if m.single != nil {
		return m.single.Finish()
	}
	if m.cycleInInterval > 0 {
		m.flush(m.cycleInInterval)
	}
	return m.err
}

// Err returns the first sticky error, or nil (see Simulator.Err).
func (m *MultiSim) Err() error {
	if m.single != nil {
		return m.single.Err()
	}
	return m.err
}

// SetOnBusSample replaces the per-sample callback for subsequent
// intervals (streaming consumers; see Simulator.SetOnSample).
func (m *MultiSim) SetOnBusSample(fn func(bus int, s Sample)) {
	m.cfg.OnBusSample = fn
	if m.single != nil {
		if fn == nil {
			m.single.SetOnSample(nil)
			return
		}
		m.single.SetOnSample(func(s Sample) { fn(0, s) })
	}
}

// Samples returns bus k's retained interval samples.
func (m *MultiSim) Samples(k int) []Sample {
	if m.single != nil {
		return m.single.Samples()
	}
	return m.samples[k]
}

// Cycles returns the number of lockstep cycles simulated.
func (m *MultiSim) Cycles() uint64 {
	if m.single != nil {
		return m.single.Cycles()
	}
	return m.cycles
}

// TotalEnergy returns bus k's cumulative energy split by component
// (flushed intervals only; call Finish first for exact totals).
func (m *MultiSim) TotalEnergy(k int) energy.LineEnergy {
	if m.single != nil {
		return m.single.TotalEnergy()
	}
	return m.totalEnergy[k]
}

// LineEnergies copies bus k's cumulative per-line energies into dst
// (length Width()).
func (m *MultiSim) LineEnergies(k int, dst []energy.LineEnergy) {
	if m.single != nil {
		m.single.LineEnergies(dst)
		return
	}
	copy(dst, m.lineTotals[k*m.width:(k+1)*m.width])
}

// BusTemps returns bus k's current per-wire temperatures.
func (m *MultiSim) BusTemps(k int) []float64 {
	if m.single != nil {
		return m.single.Temps()
	}
	return m.grid.BusTemps(k, nil)
}

// MemoStats returns the shared transition-memo counters (zero value when
// memoization is disabled); for K == 1, the scalar simulator's.
func (m *MultiSim) MemoStats() energy.MemoStats {
	if m.single != nil {
		return m.single.MemoStats()
	}
	if mm := m.acc.Memo(); mm != nil {
		return mm.Stats()
	}
	return energy.MemoStats{}
}

// Reset returns the simulator to its post-NewMulti state, keeping the
// warm memo and thermal factorisations (see Simulator.Reset).
func (m *MultiSim) Reset() {
	if m.single != nil {
		m.single.Reset()
		return
	}
	m.acc.ResetAll()
	m.grid.Reset()
	for _, e := range m.encs {
		e.Reset()
	}
	m.cycleInInterval = 0
	m.cycles = 0
	for k := range m.samples {
		m.samples[k] = nil
	}
	for i := range m.lineTotals {
		m.lineTotals[i] = energy.LineEnergy{}
	}
	for i := range m.totalEnergy {
		m.totalEnergy[i] = energy.LineEnergy{}
	}
	m.err = nil
}
