// Package core ties the paper's models together into the unified bus
// simulator of Secs. 3-5: words (optionally passed through a low-power
// encoder) drive the per-line energy model every cycle; every interval
// (100K cycles by default, the paper's choice) the accumulated per-line
// energies become piecewise-constant power inputs to the thermal-RC
// network, which is advanced with the exact interval propagator (the
// paper's RK4 is the tests' oracle for it); samples of interval energy
// and average/maximum wire temperature reproduce the traces of Figs. 4-5.
// Each interval's energy is accumulated as exact integer pair-pattern
// counts (energy.Accumulator) and converted to joules once, when the
// interval closes, so it does not depend on how the words were batched.
// Narrow transitions reach the counts through a transition-key memo
// that batches repeats of one transition. One kernel runs K >= 1 buses
// over one thermal grid, with one window per bus and one memo shared by
// the buses; Simulator (one bus) and MultiSim (K buses) are its two
// views. Config.MemoSizeLog2 sizes the memo.
package core

import (
	"context"
	"errors"
	"fmt"

	"nanobus/internal/capmodel"
	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/faultinject"
	"nanobus/internal/itrs"
	"nanobus/internal/repeater"
	"nanobus/internal/thermal"
	"nanobus/internal/trace"
)

// DefaultLength is the paper's global bus length regime ("length > 10 mm").
const DefaultLength = 0.01

// DefaultIntervalCycles is the paper's energy/temperature sampling interval.
const DefaultIntervalCycles = 100_000

// ErrPoisoned marks a simulator whose interval flush failed: the sticky
// error returned by Err, Finish, StepBatch and StepIdleBatch wraps it, so
// callers can test errors.Is(err, ErrPoisoned). A poisoned simulator stops
// emitting samples; Reset clears the condition.
//
// Every method that can close a sampling interval can poison the
// simulator: StepWord, StepIdle, StepBatch, StepIdleBatch, and Finish
// (which flushes the final partial interval). Read-only accessors
// (Samples, Temps, TotalEnergy, ...) never do.
var ErrPoisoned = errors.New("core: simulator poisoned")

// Config assembles a bus Simulator.
type Config struct {
	// Node is the technology node (required).
	Node itrs.Node
	// Length is the bus length in meters; zero means DefaultLength.
	Length float64
	// Encoder transforms data words to physical bus words; nil means
	// unencoded. Mutually exclusive with Adaptive.
	Encoder encoding.Encoder
	// Adaptive, when non-nil, enables the closed-loop thermal encoding
	// controller: the simulator starts on Adaptive.Base and switches
	// encoders at sampling-interval boundaries to defend the configured
	// temperature ceiling (see AdaptiveConfig). Mutually exclusive with
	// Encoder.
	Adaptive *AdaptiveConfig
	// CouplingDepth truncates the coupling matrix: 0 keeps self
	// capacitance only, 1 nearest-neighbour, negative or large keeps all
	// pairs. Use a negative value for the paper's full ("All") model.
	CouplingDepth int
	// IntervalCycles is the sampling interval; zero means
	// DefaultIntervalCycles.
	IntervalCycles uint64
	// NoRepeaters drops the repeater capacitance (ablation; the paper's
	// model includes delay-optimal repeaters).
	NoRepeaters bool
	// Thermal configures the thermal network.
	Thermal thermal.NodeOptions
	// OnSample, when non-nil, receives every interval sample as it
	// closes (streaming consumers). NewMulti rejects it: use
	// MultiConfig.OnBusSample.
	OnSample func(Sample)
	// DropSamples disables in-memory sample retention; combine with
	// OnSample for long runs that must not accumulate memory.
	DropSamples bool
	// TrackWireTemps copies the full per-wire temperature vector into
	// every sample (Sample.WireTemps), enabling cross-bus thermal-profile
	// animations at the cost of width*8 bytes per interval.
	TrackWireTemps bool
	// Decay overrides the non-adjacent coupling decay model; nil uses the
	// node's calibrated default.
	Decay *capmodel.DecayModel
	// MemoSizeLog2 sizes the transition-key memo (2^k entries; one per
	// Simulator, one shared by a MultiSim's buses): zero selects
	// energy.DefaultMemoSizeLog2, a negative value disables memoization
	// (every transition is counted as it arrives). The memo size changes
	// speed only, never a result; see energy.Memo.
	MemoSizeLog2 int
}

// Sample is one interval's record.
type Sample struct {
	// EndCycle is the cycle count at the end of this interval.
	EndCycle uint64
	// Energy is the whole-bus energy dissipated during the interval (J),
	// under the full (all-pairs) model.
	Energy float64
	// Self, CoupAdj, CoupNonAdj split Energy by component.
	Self, CoupAdj, CoupNonAdj float64
	// AvgTemp and MaxTemp are wire temperatures (K) at interval end.
	AvgTemp, MaxTemp float64
	// MaxWire is the hottest wire's index.
	MaxWire int
	// WireTemps is the full per-wire temperature vector at interval end;
	// nil unless Config.TrackWireTemps is set.
	WireTemps []float64
	// Encoder names the scheme that drove the bus during this interval.
	// Empty unless the adaptive controller is enabled.
	Encoder string
	// Switched marks that the adaptive controller changed encoders when
	// this interval closed (the next interval runs the other encoder).
	Switched bool
}

// kernel is the one bus kernel of Secs. 3-5 for K >= 1 buses: every
// cycle it encodes each bus's word and counts its transition, and every
// interval it prices each bus's window, advances the one thermal grid of
// all K buses and emits one sample per bus. Simulator (K = 1) and
// MultiSim (K >= 1) are its two views: each embeds it and adds only its
// own accessors.
type kernel struct {
	cfg      MultiConfig // Config.OnSample is always nil; OnBusSample is the one callback
	buses    int
	width    int
	interval uint64
	length   float64

	// encs[k] drives bus k. With the adaptive controller (K = 1 only)
	// encs[0] always aliases ad's active encoder.
	encs []encoding.Encoder
	ad   *adaptiveState
	acc  *energy.MultiAccumulator
	// net is the thermal grid of all K buses, held in the one-bus view
	// Simulator.Network exposes at K = 1.
	net *thermal.Network

	cycleInInterval uint64
	cycles          uint64
	samples         [][]Sample // per bus

	lineBuf     []energy.LineEnergy // [W] flush scratch: one bus's window lines
	windows     []energy.LineEnergy // [K] flush scratch: each bus's window energy
	power       []float64           // [K*W] bus-major interval power slab
	lineTotals  []energy.LineEnergy // [K*W] cumulative per-line energies
	totalEnergy []energy.LineEnergy // [K] cumulative per-bus energies
	// encBuf is the batch pipeline's encode scratch: one chunk of one
	// bus's physical words, so the steady state allocates nothing.
	encBuf    []uint64
	colBuf    []uint32 // [chunkRows] K > 1: one bus's data-word column
	chunkRows int
	rawEncode bool // K > 1 Unencoded scheme: fuse transpose and encode

	// err is the first error hit while flushing an interval; sticky, and
	// surfaced by Finish and Err.
	err error
}

// init builds the kernel once: the capacitance and energy models, the
// accumulator of all K buses and their one thermal grid.
func (k *kernel) init(cfg MultiConfig) error {
	if err := cfg.Node.Validate(); err != nil {
		return err
	}
	enc := cfg.Encoder
	var ad *adaptiveState
	if cfg.Adaptive != nil {
		if enc != nil {
			return fmt.Errorf("core: Encoder and Adaptive are mutually exclusive")
		}
		var err error
		if ad, err = newAdaptive(*cfg.Adaptive); err != nil {
			return err
		}
		enc = ad.active()
	}
	if enc == nil {
		enc = encoding.NewUnencoded()
	}
	length := cfg.Length
	if length == 0 { //nanolint:ignore floateq zero means the option was left unset; configured lengths are nonzero
		length = DefaultLength
	}
	if length < 0 {
		return fmt.Errorf("core: negative bus length %g", length)
	}
	interval := cfg.IntervalCycles
	if interval == 0 {
		interval = DefaultIntervalCycles
	}
	width := enc.Width()

	decay := capmodel.DefaultDecay(cfg.Node)
	if cfg.Decay != nil {
		decay = *cfg.Decay
	}
	caps, err := capmodel.FromNode(cfg.Node, width, decay)
	if err != nil {
		return err
	}
	depth := cfg.CouplingDepth
	if depth >= 0 {
		caps = caps.Truncate(depth)
	}

	crep := 0.0
	if !cfg.NoRepeaters {
		plan, err := repeater.InsertDefault(cfg.Node, length)
		if err != nil {
			return err
		}
		crep = plan.Crep
	}
	model, err := energy.New(energy.Config{
		Caps:   caps,
		Length: length,
		Vdd:    cfg.Node.Vdd,
		Crep:   crep,
	})
	if err != nil {
		return err
	}

	// K = 1 drives the configured encoder itself; K > 1 needs one
	// instance per bus, so every bus gets a registry instance.
	encs := []encoding.Encoder{enc}
	if cfg.Buses > 1 {
		encs = make([]encoding.Encoder, cfg.Buses)
		for b := range encs {
			if encs[b], err = encoding.New(enc.Name()); err != nil {
				return fmt.Errorf("core: multi-sim needs a registry encoder (per-bus instances): %w", err)
			}
		}
	}
	acc, err := energy.NewMultiAccumulator(model, cfg.Buses)
	if err != nil {
		return err
	}
	if cfg.MemoSizeLog2 >= 0 {
		if err := acc.EnableMemo(cfg.MemoSizeLog2); err != nil {
			return err
		}
	}
	grid, err := thermal.NewGridFromNode(cfg.Node, width, cfg.Buses, thermal.GridNodeOptions{
		NodeOptions:        cfg.Thermal,
		BusGapPitches:      cfg.BusGapPitches,
		DisableBusCoupling: cfg.DisableBusCoupling,
	})
	if err != nil {
		return err
	}

	*k = kernel{
		cfg:         cfg,
		buses:       cfg.Buses,
		width:       width,
		interval:    interval,
		length:      length,
		encs:        encs,
		ad:          ad,
		acc:         acc,
		net:         &thermal.Network{Grid: *grid},
		samples:     make([][]Sample, cfg.Buses),
		lineBuf:     make([]energy.LineEnergy, width),
		windows:     make([]energy.LineEnergy, cfg.Buses),
		power:       make([]float64, cfg.Buses*width),
		lineTotals:  make([]energy.LineEnergy, cfg.Buses*width),
		totalEnergy: make([]energy.LineEnergy, cfg.Buses),
		// Size chunks so one round's per-bus working set (the column
		// plus the encode buffer) stays cache-resident while keeping
		// enough rows per chunk that the per-bus dispatch (encoder call,
		// stepping-loop prologue) amortizes away even at large K.
		chunkRows: max(batchChunk/cfg.Buses, 1024),
	}
	k.encBuf = make([]uint64, k.chunkRows)
	_, k.rawEncode = encs[0].(*encoding.Unencoded)
	if k.buses > 1 && !k.rawEncode {
		k.colBuf = make([]uint32, k.chunkRows)
	}
	return nil
}

// Width returns the physical width of each bus (data + invert lines).
func (k *kernel) Width() int { return k.width }

// flush closes the current interval of n cycles for all K buses: price
// each bus's window into the [K*W] power slab, advance the thermal grid
// once, run the adaptive controller if there is one, and emit one sample
// per bus.
func (k *kernel) flush(n uint64) {
	if n == 0 {
		return
	}
	// Chaos harnesses arm this failpoint to fail (or panic) an interval
	// close mid-run; disarmed it is one atomic load per interval.
	if err := faultinject.Hit("core.interval.flush"); err != nil {
		k.poison("interval flush", err)
		return
	}
	dt := float64(n) * k.cfg.Node.CyclePeriod()
	w := k.width
	for b := 0; b < k.buses; b++ {
		tot := k.acc.BusLines(b, k.lineBuf)
		k.windows[b] = tot
		lines, power := k.lineTotals[b*w:(b+1)*w], k.power[b*w:(b+1)*w]
		for i, le := range k.lineBuf {
			lines[i].Self += le.Self
			lines[i].CoupAdj += le.CoupAdj
			lines[i].CoupNonAdj += le.CoupNonAdj
			// W/m: interval line energy over interval time, per unit length.
			power[i] = le.Total() / dt / k.length
		}
		k.totalEnergy[b].Self += tot.Self
		k.totalEnergy[b].CoupAdj += tot.CoupAdj
		k.totalEnergy[b].CoupNonAdj += tot.CoupNonAdj
	}

	grid := &k.net.Grid
	if err := grid.Advance(dt, k.power); err != nil {
		// The grid is sized to the buses and dt > 0, so this indicates a
		// programming bug; record it sticky and stop sampling rather than
		// take the library down.
		k.poison("thermal advance", err)
		return
	}
	for b := 0; b < k.buses; b++ {
		tot := k.windows[b]
		maxT, maxW := grid.BusMaxTemp(b)
		sample := Sample{
			EndCycle:   k.cycles,
			Energy:     tot.Total(),
			Self:       tot.Self,
			CoupAdj:    tot.CoupAdj,
			CoupNonAdj: tot.CoupNonAdj,
			AvgTemp:    grid.BusAvgTemp(b),
			MaxTemp:    maxT,
			MaxWire:    maxW,
		}
		if k.cfg.TrackWireTemps {
			sample.WireTemps = grid.BusTemps(b, nil)
		}
		if a := k.ad; a != nil {
			// The controller runs at interval boundaries: attribute the
			// closed interval's cycles to the encoder that drove it, then
			// let the control law pick the encoder for the next interval.
			// The switch decision is a pure function of (cycle, MaxTemp,
			// config), so the recorded switch points replay
			// bit-identically from checkpoints.
			sample.Encoder = a.names[a.mode]
			a.occupancy[a.mode] += n
			k.encs[0], sample.Switched = a.decide(k.cycles, maxT)
		}
		if k.cfg.OnBusSample != nil {
			k.cfg.OnBusSample(b, sample)
		}
		if !k.cfg.DropSamples {
			k.samples[b] = append(k.samples[b], sample)
		}
	}
	k.acc.Reset()
	k.cycleInInterval = 0
}

// poison records the first flush failure as the sticky error and drops
// the failed interval's window.
func (k *kernel) poison(stage string, err error) {
	if k.err == nil {
		k.err = fmt.Errorf("%w: %s: %w", ErrPoisoned, stage, err)
	}
	k.acc.Reset()
	k.cycleInInterval = 0
}

// Finish closes any partial interval; call once after the last cycle. It
// returns the first error the simulator hit while flushing intervals, if
// any (also available via Err).
func (k *kernel) Finish() error {
	if k.cycleInInterval > 0 {
		k.flush(k.cycleInInterval)
	}
	return k.err
}

// Err returns the first error recorded during stepping, or nil. Once an
// error is recorded the simulator is poisoned (the error wraps
// ErrPoisoned) and stops emitting samples; Reset clears it.
func (k *kernel) Err() error { return k.err }

// MemoStats returns the transition-memo counters (zero value when
// memoization is disabled); a MultiSim's buses share one memo. They are
// cumulative over the simulator's life: Reset keeps the warm memo and
// its counters.
func (k *kernel) MemoStats() energy.MemoStats {
	if m := k.acc.Memo(); m != nil {
		return m.Stats()
	}
	return energy.MemoStats{}
}

// Reset returns the simulator to its post-construction state so sweep
// drivers can reuse one simulator (and its capacitance extraction,
// thermal factorisation and warm memo) across runs: bus state, encoder
// state, wire temperatures, samples, totals and the sticky error are all
// cleared, so a reused simulator replays runs bit-identically.
func (k *kernel) Reset() {
	k.acc.ResetAll()
	k.net.Reset()
	for _, e := range k.encs {
		e.Reset()
	}
	if k.ad != nil {
		k.ad.reset()
		k.encs[0] = k.ad.active()
	}
	k.cycleInInterval = 0
	k.cycles = 0
	for b := range k.samples {
		k.samples[b] = nil
	}
	clear(k.lineTotals)
	clear(k.totalEnergy)
	k.err = nil
}

// Cycles returns the number of (lockstep) cycles simulated.
func (k *kernel) Cycles() uint64 { return k.cycles }

// Simulator drives one address bus: the K = 1 view of the kernel.
type Simulator struct{ kernel }

// New builds a Simulator.
func New(cfg Config) (*Simulator, error) {
	onSample := cfg.OnSample
	cfg.OnSample = nil
	s := new(Simulator)
	if err := s.init(MultiConfig{Config: cfg, Buses: 1}); err != nil {
		return nil, err
	}
	s.SetOnSample(onSample)
	return s, nil
}

// Encoder returns the encoder in use (the active one under the adaptive
// controller).
func (s *Simulator) Encoder() encoding.Encoder { return s.encs[0] }

// Network exposes the thermal network (read-only use intended).
func (s *Simulator) Network() *thermal.Network { return s.net }

// StepWord drives one data word for one cycle. If the cycle closes a
// sampling interval whose flush fails, the simulator is poisoned (see
// ErrPoisoned); check Err or Finish.
func (s *Simulator) StepWord(word uint32) {
	w := [1]uint64{s.encs[0].Encode(word)}
	s.acc.StepBus(0, w[:])
	s.acc.AddCycles(1)
	s.advance(1)
}

// StepIdle advances one cycle with the bus holding its value. Like
// StepWord it can poison the simulator when an interval flush fails.
func (s *Simulator) StepIdle() {
	s.acc.IdleN(1)
	s.advance(1)
}

// SetOnSample replaces the per-sample callback (Config.OnSample) for
// subsequent intervals. Streaming consumers attach a callback for the
// duration of one request and detach it with SetOnSample(nil); the
// simulator must not be stepped concurrently.
func (s *Simulator) SetOnSample(fn func(Sample)) {
	s.cfg.OnBusSample = nil
	if fn != nil {
		s.cfg.OnBusSample = func(_ int, sm Sample) { fn(sm) }
	}
}

// Samples returns the retained interval samples.
func (s *Simulator) Samples() []Sample { return s.samples[0] }

// TotalEnergy returns the cumulative bus energy split by component,
// including any flushed intervals only (call Finish first for exact
// totals).
func (s *Simulator) TotalEnergy() energy.LineEnergy { return s.totalEnergy[0] }

// LineEnergies copies cumulative per-line energies into dst (length
// Width()).
func (s *Simulator) LineEnergies(dst []energy.LineEnergy) {
	copy(dst, s.lineTotals)
}

// Temps returns the current per-wire temperatures.
func (s *Simulator) Temps() []float64 { return s.net.Temps(nil) }

// PairResult bundles the IA and DA simulators after a run.
type PairResult struct {
	IA, DA *Simulator
	Cycles uint64
}

// RunPair drives separate instruction- and data-address bus simulators
// from a trace source for up to maxCycles cycles (the DA bus idles on
// cycles without a data access, and both buses idle on injected idle
// cycles). It finishes both simulators before returning. RunPair is
// RunPairContext with a background context.
func RunPair(src trace.Source, ia, da *Simulator, maxCycles uint64) (PairResult, error) {
	return RunPairContext(context.Background(), src, ia, da, maxCycles)
}

// RunSingle drives one simulator from the source's instruction stream
// (kind "ia") or data stream ("da") for up to maxCycles cycles. RunSingle
// is RunSingleContext with a background context.
func RunSingle(src trace.Source, sim *Simulator, kind string, maxCycles uint64) (uint64, error) {
	return RunSingleContext(context.Background(), src, sim, kind, maxCycles)
}
