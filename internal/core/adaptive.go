package core

import (
	"fmt"

	"nanobus/internal/encoding"
)

// AdaptiveConfig configures the closed-loop thermal encoding controller:
// the simulator runs the Base encoder until the hottest wire approaches
// CeilingK, switches to the Cool encoder until the bus has cooled back
// through the hysteresis band, and records every switch. Decisions are
// taken once per sampling interval from the interval's closing MaxTemp,
// so switch points are a deterministic function of the trace and the
// configuration (no wall-clock, no randomness) and survive checkpoint
// resume bit-identically.
type AdaptiveConfig struct {
	// Base is the encoder run while the bus is cool (e.g. "BI" — the
	// paper's best energy code). Required.
	Base string
	// Cool is the thermally-protective encoder engaged near the ceiling
	// (e.g. "CoolSpread"). Required, distinct from Base.
	Cool string
	// CeilingK is the wire-temperature ceiling in kelvin the controller
	// defends. Required.
	CeilingK float64
	// GuardK is how far below the ceiling the controller reacts: the bus
	// switches Base -> Cool when MaxTemp >= CeilingK-GuardK. The guard
	// absorbs the one-interval decision lag (temperature can still rise
	// during the interval that triggers the switch). Zero means react at
	// the ceiling itself.
	GuardK float64
	// HysteresisK is the width of the cool-down band: the bus switches
	// Cool -> Base only when MaxTemp <= CeilingK-GuardK-HysteresisK.
	// Zero collapses the band and the controller may thrash at the
	// trigger point.
	HysteresisK float64
}

const (
	modeBase = iota
	modeCool
)

// SwitchEvent records one deterministic encoder switch: the interval
// boundary it happened at and the encoders on each side.
type SwitchEvent struct {
	// Cycle is the simulated cycle count at the interval boundary where
	// the controller switched (the sample ending at Cycle is the last
	// one produced under From).
	Cycle uint64 `json:"cycle"`
	// From and To are the outgoing and incoming scheme names.
	From string `json:"from"`
	To   string `json:"to"`
	// TempK is the MaxTemp reading that triggered the switch.
	TempK float64 `json:"temp_k"`
}

// EncoderCycles reports how many simulated cycles an encoder was active.
type EncoderCycles struct {
	Encoder string `json:"encoder"`
	Cycles  uint64 `json:"cycles"`
}

// adaptiveState is the controller's runtime: both encoders (padded to a
// common physical width so the capacitance and thermal models are built
// once), the active mode, and the audit trail.
type adaptiveState struct {
	cfg       AdaptiveConfig
	encs      [2]encoding.Encoder // indexed by modeBase/modeCool
	names     [2]string
	mode      int
	occupancy [2]uint64
	events    []SwitchEvent
}

// newAdaptive validates cfg and builds the controller with both encoders
// padded to their common (maximum) width.
func newAdaptive(cfg AdaptiveConfig) (*adaptiveState, error) {
	if cfg.Base == "" || cfg.Cool == "" {
		return nil, fmt.Errorf("core: adaptive config requires Base and Cool encoders")
	}
	if cfg.Base == cfg.Cool {
		return nil, fmt.Errorf("core: adaptive Base and Cool must differ (both %q)", cfg.Base)
	}
	if cfg.CeilingK <= 0 {
		return nil, fmt.Errorf("core: adaptive CeilingK must be positive, got %g", cfg.CeilingK)
	}
	if cfg.GuardK < 0 || cfg.HysteresisK < 0 {
		return nil, fmt.Errorf("core: adaptive GuardK/HysteresisK must be non-negative")
	}
	base, err := encoding.New(cfg.Base)
	if err != nil {
		return nil, fmt.Errorf("core: adaptive base: %w", err)
	}
	cool, err := encoding.New(cfg.Cool)
	if err != nil {
		return nil, fmt.Errorf("core: adaptive cool: %w", err)
	}
	width := base.Width()
	if cool.Width() > width {
		width = cool.Width()
	}
	return &adaptiveState{
		cfg:   cfg,
		encs:  [2]encoding.Encoder{encoding.Pad(base, width), encoding.Pad(cool, width)},
		names: [2]string{base.Name(), cool.Name()},
	}, nil
}

// trigger and release are the two thresholds of the hysteresis band.
func (a *adaptiveState) trigger() float64 { return a.cfg.CeilingK - a.cfg.GuardK }
func (a *adaptiveState) release() float64 { return a.trigger() - a.cfg.HysteresisK }

// active returns the encoder the simulator should be driving now.
func (a *adaptiveState) active() encoding.Encoder { return a.encs[a.mode] }

// decide runs the control law at an interval boundary: given the
// interval's closing MaxTemp it may flip the mode, handing the physical
// bus state across so the incoming encoder's first transition is charged
// against the word actually on the wires. It returns the new active
// encoder and whether a switch happened.
func (a *adaptiveState) decide(cycle uint64, maxTemp float64) (encoding.Encoder, bool) {
	next := a.mode
	switch a.mode {
	case modeBase:
		if maxTemp >= a.trigger() {
			next = modeCool
		}
	case modeCool:
		if maxTemp <= a.release() {
			next = modeBase
		}
	}
	if next == a.mode {
		return a.encs[a.mode], false
	}
	a.handoff(a.encs[a.mode], a.encs[next])
	a.events = append(a.events, SwitchEvent{
		Cycle: cycle,
		From:  a.names[a.mode],
		To:    a.names[next],
		TempK: maxTemp,
	})
	a.mode = next
	return a.encs[a.mode], true
}

// handoff carries the physical bus state from the outgoing encoder into
// the incoming one: the incoming encoder keeps its own private history
// (e.g. CoolSpread's rotation counter) but inherits the word currently
// driven on the wires, so its first Encode decision — and the energy of
// the transition it causes — is computed against the true bus state.
func (a *adaptiveState) handoff(from, to encoding.Encoder) {
	fs, ok := from.(encoding.Stateful)
	if !ok {
		return
	}
	ts, ok := to.(encoding.Stateful)
	if !ok {
		return
	}
	st := ts.State()
	fst := fs.State()
	st.Prev = fst.Prev
	st.First = fst.First
	ts.SetState(st)
}

// reset returns the controller to its post-build state.
func (a *adaptiveState) reset() {
	for _, e := range a.encs {
		e.Reset()
	}
	a.mode = modeBase
	a.occupancy = [2]uint64{}
	a.events = nil
}

// Adaptive reports whether the simulator runs the adaptive encoding
// controller.
func (k *kernel) Adaptive() bool { return k.ad != nil }

// ActiveEncoder returns the scheme name currently driving bus 0 (the
// static encoder's name for non-adaptive simulators).
func (k *kernel) ActiveEncoder() string {
	if k.ad != nil {
		return k.ad.names[k.ad.mode]
	}
	return k.encs[0].Name()
}

// SwitchEvents returns the encoder switches recorded so far, in cycle
// order. Nil for non-adaptive simulators or before the first switch.
func (k *kernel) SwitchEvents() []SwitchEvent {
	if k.ad == nil {
		return nil
	}
	return k.ad.events
}

// EncoderOccupancy returns the cycles attributed to each encoder (whole
// flushed intervals only), base first. Nil for non-adaptive simulators.
func (k *kernel) EncoderOccupancy() []EncoderCycles {
	if k.ad == nil {
		return nil
	}
	return []EncoderCycles{
		{Encoder: k.ad.names[modeBase], Cycles: k.ad.occupancy[modeBase]},
		{Encoder: k.ad.names[modeCool], Cycles: k.ad.occupancy[modeCool]},
	}
}
