package core

import (
	"fmt"

	"nanobus/internal/energy"
	"nanobus/internal/thermal"
)

// MultiConfig assembles a MultiSim: K identically-configured buses (one
// shared technology node, encoder scheme, coupling model and sampling
// interval) coupled through a banded inter-bus thermal network.
type MultiConfig struct {
	// Config is the shared per-bus configuration. Config.Encoder names the
	// scheme; at K > 1 each bus gets its own registry instance (encoder
	// state is per bus). Config.OnSample must be nil: use OnBusSample.
	Config
	// Buses is the number of buses K (>= 1). K == 1 is bit-identical to
	// a Simulator, checkpoints included.
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

// MultiSim drives K buses in lockstep: the bus-indexed view of the one
// kernel, with one shared transition-key memo probed across all buses,
// one contiguous [K*W] power slab, and one banded thermal grid advanced
// once per sampling interval for the whole die region.
//
// Each bus's window is exact pair-pattern counts, read out as a
// Simulator reads its own: every sample energy, cumulative total and
// per-line energy of bus k is bit-identical (Float64bits) to a
// Simulator run on bus k's column, whatever the memo size and whenever
// the run is snapshotted. At K > 1 temperatures differ, because the
// buses share one thermal grid.
type MultiSim struct{ kernel }

// NewMulti builds a K-bus simulator. At K > 1 the encoder named by
// cfg.Config.Encoder must come from the encoding registry (each bus needs
// its own instance), and the adaptive controller is not supported.
func NewMulti(cfg MultiConfig) (*MultiSim, error) {
	switch {
	case cfg.Buses < 1:
		return nil, fmt.Errorf("core: multi-sim buses %d < 1", cfg.Buses)
	case cfg.OnSample != nil:
		return nil, fmt.Errorf("core: MultiConfig.Config.OnSample is not called by a multi-sim; set MultiConfig.OnBusSample")
	case cfg.Adaptive != nil && cfg.Buses > 1:
		// The controller's state and checkpoint block are one bus's;
		// per-bus control needs a new checkpoint section.
		return nil, fmt.Errorf("core: multi-sim does not support the adaptive controller at K > 1; run one-bus sessions")
	}
	m := new(MultiSim)
	if err := m.init(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Buses returns K.
func (m *MultiSim) Buses() int { return m.buses }

// Grid exposes the banded thermal grid of all K buses.
func (m *MultiSim) Grid() *thermal.Grid { return &m.net.Grid }

// SetOnBusSample replaces the per-sample callback for subsequent
// intervals (streaming consumers; see Simulator.SetOnSample).
func (m *MultiSim) SetOnBusSample(fn func(bus int, s Sample)) { m.cfg.OnBusSample = fn }

// Samples returns bus k's retained interval samples.
func (m *MultiSim) Samples(k int) []Sample { return m.samples[k] }

// TotalEnergy returns bus k's cumulative energy split by component
// (flushed intervals only; call Finish first for exact totals).
func (m *MultiSim) TotalEnergy(k int) energy.LineEnergy { return m.totalEnergy[k] }
