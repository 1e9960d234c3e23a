package nanobus

import (
	"fmt"

	"nanobus/internal/encoding"
)

// FullCoupling is the CouplingDepth value selecting the paper's full
// (all-pairs) coupling model.
const FullCoupling = -1

// Option mutates a BusConfig during New. Options are applied in order;
// the first failing option aborts construction.
type Option func(*BusConfig) error

// New builds a bus simulator for the node with functional options. Unlike
// the zero-magic BusConfig (where zero CouplingDepth means self-only
// capacitance), New defaults to the paper's full model: all coupling
// pairs, the default 10 mm length, the default 100K-cycle sampling
// interval, and the pair-count energy kernel.
//
//	sim, err := nanobus.New(nanobus.Node90,
//	        nanobus.WithEncoding("BI"),
//	        nanobus.WithInterval(50_000))
func New(node Node, opts ...Option) (*Bus, error) {
	cfg := BusConfig{Node: node, CouplingDepth: FullCoupling}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("nanobus: nil option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return NewBus(cfg)
}

// WithEncoding selects a low-power encoding scheme by name ("Unencoded",
// "BI", "OEBI", "CBI", "Gray", "T0"). Unknown names fail New with an
// error wrapping ErrUnknownEncoding.
func WithEncoding(name string) Option {
	return func(cfg *BusConfig) error {
		enc, err := encoding.New(name)
		if err != nil {
			return err
		}
		cfg.Encoder = enc
		return nil
	}
}

// WithEncoder installs an explicit encoder instance (e.g. a T0 encoder
// with a custom stride).
func WithEncoder(enc Encoder) Option {
	return func(cfg *BusConfig) error {
		cfg.Encoder = enc
		return nil
	}
}

// WithLength sets the bus length in meters.
func WithLength(meters float64) Option {
	return func(cfg *BusConfig) error {
		if meters <= 0 {
			return fmt.Errorf("nanobus: non-positive bus length %g", meters)
		}
		cfg.Length = meters
		return nil
	}
}

// WithInterval sets the sampling interval in cycles.
func WithInterval(cycles uint64) Option {
	return func(cfg *BusConfig) error {
		if cycles == 0 {
			return fmt.Errorf("nanobus: zero sampling interval")
		}
		cfg.IntervalCycles = cycles
		return nil
	}
}

// WithMemoSize sizes the multi-bus (K > 1) transition-key memo to
// 2^log2 entries; a negative log2 disables it (every word is counted as
// a single bus counts it). The size changes speed only, never a result.
// A single bus counts pair patterns and has no memo, so there the size
// is only validated.
func WithMemoSize(log2 int) Option {
	return func(cfg *BusConfig) error {
		cfg.MemoSizeLog2 = log2
		return nil
	}
}

// WithCouplingDepth truncates the coupling matrix: 0 keeps self
// capacitance only, 1 nearest-neighbour, FullCoupling (New's default)
// keeps all pairs.
func WithCouplingDepth(depth int) Option {
	return func(cfg *BusConfig) error {
		cfg.CouplingDepth = depth
		return nil
	}
}

// WithThermal overrides the thermal-network options.
func WithThermal(opts ThermalOptions) Option {
	return func(cfg *BusConfig) error {
		cfg.Thermal = opts
		return nil
	}
}

// WithWireTemps copies the full per-wire temperature vector into every
// sample (Sample.WireTemps).
func WithWireTemps() Option {
	return func(cfg *BusConfig) error {
		cfg.TrackWireTemps = true
		return nil
	}
}

// WithOnSample streams every interval sample to fn as it closes.
func WithOnSample(fn func(Sample)) Option {
	return func(cfg *BusConfig) error {
		cfg.OnSample = fn
		return nil
	}
}

// WithoutSampleRetention disables in-memory sample retention; combine
// with WithOnSample for unbounded runs.
func WithoutSampleRetention() Option {
	return func(cfg *BusConfig) error {
		cfg.DropSamples = true
		return nil
	}
}
