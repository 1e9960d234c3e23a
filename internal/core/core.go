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
// The multi-bus kernel (MultiSim, K > 1) keeps the same counts per bus
// and batches them through a shared transition-key memo;
// Config.MemoSizeLog2 sizes that memo.
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
	// closes (streaming consumers).
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
	// MemoSizeLog2 sizes the multi-bus transition-key memo (2^k
	// entries) of a MultiSim with K > 1 buses: zero selects
	// energy.DefaultMemoSizeLog2, a negative value disables memoization
	// (every word is counted as the scalar kernel counts it). The memo
	// size changes speed only, never a result. The scalar kernel
	// (Simulator, K = 1) has no memo and only validates the size; see
	// energy.Memo.
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

// Simulator drives one address bus.
type Simulator struct {
	cfg Config
	enc encoding.Encoder
	// ad is the adaptive encoding controller; nil for static encoders.
	// When set, enc always aliases ad's active encoder.
	ad       *adaptiveState
	acc      *energy.Accumulator
	net      *thermal.Network
	interval uint64
	dt       float64 // interval duration in seconds
	length   float64

	cycleInInterval uint64
	samples         []Sample
	lineBuf         []energy.LineEnergy
	power           []float64
	// encBuf is the batch pipeline's encode scratch: StepBatch encodes up
	// to one chunk of data words into physical words here before handing
	// them to the accumulator, so the steady state allocates nothing.
	encBuf []uint64

	totalEnergy energy.LineEnergy
	lineTotals  []energy.LineEnergy
	cycles      uint64

	// err is the first error hit while flushing an interval; sticky, and
	// surfaced by Finish and Err.
	err error
}

// New builds a Simulator.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Node.Validate(); err != nil {
		return nil, err
	}
	enc := cfg.Encoder
	var ad *adaptiveState
	if cfg.Adaptive != nil {
		if enc != nil {
			return nil, fmt.Errorf("core: Encoder and Adaptive are mutually exclusive")
		}
		var err error
		if ad, err = newAdaptive(*cfg.Adaptive); err != nil {
			return nil, err
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
		return nil, fmt.Errorf("core: negative bus length %g", length)
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
		return nil, err
	}
	depth := cfg.CouplingDepth
	if depth >= 0 {
		caps = caps.Truncate(depth)
	}

	crep := 0.0
	if !cfg.NoRepeaters {
		plan, err := repeater.InsertDefault(cfg.Node, length)
		if err != nil {
			return nil, err
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
		return nil, err
	}
	net, err := thermal.NewFromNode(cfg.Node, width, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	acc := energy.NewAccumulator(model)
	if cfg.MemoSizeLog2 >= 0 {
		if err := acc.EnableMemo(cfg.MemoSizeLog2); err != nil {
			return nil, err
		}
	}
	return &Simulator{
		cfg:        cfg,
		enc:        enc,
		ad:         ad,
		acc:        acc,
		net:        net,
		interval:   interval,
		dt:         float64(interval) * cfg.Node.CyclePeriod(),
		length:     length,
		lineBuf:    make([]energy.LineEnergy, width),
		power:      make([]float64, width),
		lineTotals: make([]energy.LineEnergy, width),
		encBuf:     make([]uint64, batchChunk),
	}, nil
}

// Width returns the physical bus width (data + invert lines).
func (s *Simulator) Width() int { return s.enc.Width() }

// Encoder returns the encoder in use.
func (s *Simulator) Encoder() encoding.Encoder { return s.enc }

// Network exposes the thermal network (read-only use intended).
func (s *Simulator) Network() *thermal.Network { return s.net }

// StepWord drives one data word for one cycle. If the cycle closes a
// sampling interval whose flush fails, the simulator is poisoned (see
// ErrPoisoned); check Err or Finish.
func (s *Simulator) StepWord(word uint32) {
	s.acc.Step(s.enc.Encode(word))
	s.tick()
}

// StepIdle advances one cycle with the bus holding its value. Like
// StepWord it can poison the simulator when an interval flush fails.
func (s *Simulator) StepIdle() {
	s.acc.Idle()
	s.tick()
}

func (s *Simulator) tick() {
	s.cycles++
	s.cycleInInterval++
	if s.cycleInInterval >= s.interval {
		s.flush(s.cycleInInterval)
	}
}

// flush closes the current interval of n cycles: convert per-line energy to
// power, advance the thermal network, emit a sample, reset the window.
func (s *Simulator) flush(n uint64) {
	if n == 0 {
		return
	}
	// Chaos harnesses arm this failpoint to fail (or panic) an interval
	// close mid-run; disarmed it is one atomic load per interval.
	if err := faultinject.Hit("core.interval.flush"); err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("%w: interval flush: %w", ErrPoisoned, err)
		}
		s.acc.Reset()
		s.cycleInInterval = 0
		return
	}
	tot := s.acc.Lines(s.lineBuf)
	dt := float64(n) * s.cfg.Node.CyclePeriod()
	for i := range s.lineBuf {
		le := s.lineBuf[i]
		s.lineTotals[i].Self += le.Self
		s.lineTotals[i].CoupAdj += le.CoupAdj
		s.lineTotals[i].CoupNonAdj += le.CoupNonAdj
		// W/m: interval line energy over interval time, per unit length.
		s.power[i] = le.Total() / dt / s.length
	}
	s.totalEnergy.Self += tot.Self
	s.totalEnergy.CoupAdj += tot.CoupAdj
	s.totalEnergy.CoupNonAdj += tot.CoupNonAdj

	if err := s.net.Advance(dt, s.power); err != nil {
		// The network is sized to the bus and dt > 0, so this indicates a
		// programming bug; record it sticky and stop sampling rather than
		// take the library down.
		if s.err == nil {
			s.err = fmt.Errorf("%w: thermal advance: %w", ErrPoisoned, err)
		}
		s.acc.Reset()
		s.cycleInInterval = 0
		return
	}
	maxT, maxW := s.net.MaxTemp()
	sample := Sample{
		EndCycle:   s.cycles,
		Energy:     tot.Total(),
		Self:       tot.Self,
		CoupAdj:    tot.CoupAdj,
		CoupNonAdj: tot.CoupNonAdj,
		AvgTemp:    s.net.AvgTemp(),
		MaxTemp:    maxT,
		MaxWire:    maxW,
	}
	if s.cfg.TrackWireTemps {
		sample.WireTemps = s.net.Temps(nil)
	}
	if s.ad != nil {
		// The controller runs at interval boundaries: attribute the closed
		// interval's cycles to the encoder that drove it, then let the
		// control law pick the encoder for the next interval. The switch
		// decision is a pure function of (cycle, MaxTemp, config), so the
		// recorded switch points replay bit-identically from checkpoints.
		sample.Encoder = s.ad.names[s.ad.mode]
		s.ad.occupancy[s.ad.mode] += n
		s.enc, sample.Switched = s.ad.decide(s.cycles, maxT)
	}
	if s.cfg.OnSample != nil {
		s.cfg.OnSample(sample)
	}
	if !s.cfg.DropSamples {
		s.samples = append(s.samples, sample)
	}
	s.acc.Reset()
	s.cycleInInterval = 0
}

// Finish closes any partial interval; call once after the last cycle. It
// returns the first error the simulator hit while flushing intervals, if
// any (also available via Err).
func (s *Simulator) Finish() error {
	if s.cycleInInterval > 0 {
		s.flush(s.cycleInInterval)
	}
	return s.err
}

// Err returns the first error recorded during stepping, or nil. Once an
// error is recorded the simulator is poisoned (the error wraps
// ErrPoisoned) and stops emitting samples; Reset clears it.
func (s *Simulator) Err() error { return s.err }

// MemoStats returns the zero value: the scalar kernel counts pair
// patterns and has no transition memo. It is kept so a K = 1 MultiSim and
// a session report the same shape as the multi-bus kernel.
func (s *Simulator) MemoStats() energy.MemoStats { return energy.MemoStats{} }

// Reset returns the simulator to its post-New state so sweep drivers can
// reuse one simulator (and its capacitance extraction and thermal
// factorisation) across runs: bus state, encoder state, wire
// temperatures, samples, totals and the sticky error are all cleared, so
// a reused simulator replays runs bit-identically.
func (s *Simulator) Reset() {
	s.acc.ResetAll()
	s.net.Reset()
	s.enc.Reset()
	if s.ad != nil {
		s.ad.reset()
		s.enc = s.ad.active()
	}
	s.cycleInInterval = 0
	s.cycles = 0
	s.samples = nil
	s.totalEnergy = energy.LineEnergy{}
	for i := range s.lineTotals {
		s.lineTotals[i] = energy.LineEnergy{}
	}
	s.err = nil
}

// Samples returns the retained interval samples.
func (s *Simulator) Samples() []Sample { return s.samples }

// Cycles returns the number of cycles simulated.
func (s *Simulator) Cycles() uint64 { return s.cycles }

// TotalEnergy returns the cumulative bus energy split by component,
// including any flushed intervals only (call Finish first for exact
// totals).
func (s *Simulator) TotalEnergy() energy.LineEnergy { return s.totalEnergy }

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
