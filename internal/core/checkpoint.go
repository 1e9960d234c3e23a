package core

import (
	"errors"
	"fmt"
	"math"

	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/wire"
)

// Checkpoint format (NBCP). A snapshot is a self-describing binary blob,
// deterministic down to the byte for a given simulator state. One codec
// handles six layouts, named by the version word and described by the
// version table ckptLayouts; the kernel's writer picks one from its shape
// alone, so a Simulator and a one-bus MultiSim write the same bytes:
//
//	v4  one bus, static encoder
//	v6  K > 1 buses
//	v5  one bus running the adaptive controller
//	v1  v4 without the window counts (read only)
//	v2  v6 without the window counts (read only)
//	v3  v5 without the window counts (read only)
//
// v4, v5 and v6 are v1, v3 and v2 with each accumulator window extended
// by its exact pair-pattern counts (see energy.AccumulatorState).
// Snapshot writes v4, v5 and v6. Restore still reads v1, v2 and v3 blobs:
// their float window becomes the accumulator's carry, added to the counts
// when the interval closes, so a blob taken before the counts existed
// resumes where it stopped.
//
// Integers and float bit patterns are little-endian; a string is a u16
// length and its bytes; a bool is one byte, 0 or 1; a line energy is
// three f64 (self, adjacent coupling, non-adjacent coupling).
//
//	envelope     "NBCP" | version u16 | flags u16 (written 0, not checked)
//	             | body | crc32 (IEEE) of every preceding byte
//	fingerprint  compared field by field with the target:
//	  v1, v4     node, encoding, width u32, interval cycles u64,
//	             length f64, coupling depth i64 (-1 = all pairs),
//	             no-repeaters bool
//	  v3, v5     node, adaptive base, adaptive cool, ceiling, guard and
//	             hysteresis f64, then v1's fields from width on
//	  v2, v6     v1's fields, buses u32, bus-coupling-disabled bool,
//	             bus gap pitches f64
//	counters     cycles u64, cycles into the open interval u64
//	one-bus body bus block | thermal | samples
//	v2, v6 body  thermal (K*W temperatures, bus-major) |
//	             per bus: bus block | samples
//	bus block    cumulative total, W per-line totals, accumulator window
//	             (held word u64, first bool, cycles u64, idle cycles u64,
//	             window total, W window lines), then
//	  v4, v5, v6 window counts: W toggle counts u64, W(W-1)/2 pair
//	             counts i64 (pairs i < j, row-major), then
//	  v1, v2,    encoder state: prev u64, last u32, first bool (zero for
//	  v4, v6     stateless schemes)
//	  v3, v5     controller: mode u16, just-switched bool (the last
//	             switch event closed the last interval), base and cool
//	             occupancy u64, base and cool encoder states (the
//	             inactive one keeps private history, e.g. CoolSpread's
//	             rotation counter, that the next switch resumes), event
//	             count u32, events (cycle u64, target mode u16, temp f64)
//	thermal      ambient f64, wire temperatures f64
//	samples      count u32, each: end cycle u64, energy, self, adjacent
//	             and non-adjacent coupling, avg and max temp f64, hottest
//	             wire i64, wire-temp count u32 and temps f64; v3 and v5
//	             add a cool-mode bool and a switched bool
//
// In v4, v5 and v6 the float window is the carry, zero unless the blob's
// history passes through a v1, v2 or v3 restore in the same interval.
//
// The transition-key memo is never serialized: a restored simulator
// re-warms it (the "dropped and rewarmed" policy). Snapshot first drains
// the memo's pending counts into the windows. Every window is integers,
// so neither the drain nor the cold memo's different eviction schedule
// changes a later result: a restored simulator, K = 1 or K > 1, continues
// bit-identically to the source, and so does the source itself.
//
// One walk (kernel.walk) states the layouts above once, on the codec
// internal/wire shares with the NBSE envelope and the NBWP payloads:
// Snapshot runs it writing, Restore runs it reading, and each field's
// validity rule sits on the field and runs as it is read. Restore
// decodes and validates the whole blob before it touches the target:
// envelope, version, fingerprint, every count against the remaining
// payload, bools that are 0 or 1, finite energies and temperatures, a
// positive ambient, window counts some window could hold, a hottest wire
// and a wire-temp count some bus could report, and a just-switched byte
// that agrees with the switch log. A rejected blob leaves the simulator
// exactly as it was.

// ErrCheckpointCorrupt marks a checkpoint Restore rejected before touching
// any state: short blob, bad magic, unsupported version, checksum
// mismatch, or a field no simulator could have written. Test with
// errors.Is.
var ErrCheckpointCorrupt = errors.New("core: corrupt checkpoint")

// ErrCheckpointMismatch marks a structurally valid checkpoint taken from a
// simulator whose configuration differs from the restore target (node,
// encoder, width, length, interval, coupling depth or repeater setting).
// Test with errors.Is.
var ErrCheckpointMismatch = errors.New("core: checkpoint configuration mismatch")

const checkpointMagic = "NBCP"

// ckptLayout is the shape of one NBCP layout.
type ckptLayout struct {
	multi    bool // K > 1 buses: the grid leads the bus blocks
	adaptive bool // a controller block replaces the encoder state; samples carry mode tags
	counts   bool // each float window is followed by its pair-pattern counts
	written  bool // Snapshot writes it; the others are read only
}

// ckptLayouts is the version table, indexed by version: the only place a
// version number is mapped to a shape.
var ckptLayouts = [...]ckptLayout{
	1: {},
	2: {multi: true},
	3: {adaptive: true},
	4: {counts: true, written: true},
	5: {adaptive: true, counts: true, written: true},
	6: {multi: true, counts: true, written: true},
}

// layout returns the version Snapshot writes for the kernel's shape, 0 if
// no layout holds it.
func (k *kernel) layout() uint16 {
	for v, l := range ckptLayouts {
		if l.written && l.multi == (k.buses > 1) && l.adaptive == (k.ad != nil) {
			return uint16(v)
		}
	}
	return 0
}

// ckptState is the state a checkpoint carries beyond the fingerprint:
// Snapshot gathers it from the kernel, the walk writes or reads it, and
// Restore applies it once the whole blob has been read.
type ckptState struct {
	cycles, cycleInInterval uint64
	ambient                 float64
	temps                   []float64 // [K*W] bus-major
	buses                   []ckptBus
	// The adaptive controller: mode, occupancy, the base and cool
	// encoder states, and the switch log.
	mode      int
	occupancy [2]uint64
	ctlEsts   [2]encoding.State
	events    []SwitchEvent
}

// ckptBus is one bus's cumulative energies, open window, static encoder
// state and samples.
type ckptBus struct {
	total   energy.LineEnergy
	lines   []energy.LineEnergy
	win     energy.AccumulatorState
	est     encoding.State
	samples []Sample
}

// justSwitched is the adaptive layouts' just-switched byte: whether the
// last switch event closed the last interval. It is derived from the
// switch log, so the byte is written from it and checked against it.
func (s *ckptState) justSwitched() bool {
	n := len(s.events)
	return n > 0 && s.events[n-1].Cycle == s.cycles-s.cycleInInterval
}

// Snapshot serializes the simulator's full in-flight state into a
// versioned, checksummed, deterministic binary checkpoint (NBCP v4, v5 or
// v6; a Simulator and a one-bus MultiSim write the same bytes).
// Snapshotting a poisoned simulator fails (its state is not
// trustworthy); everything else — including a partially filled sampling
// interval — round-trips exactly: a simulator restored from the snapshot
// emits bit-identical samples, totals and temperatures from that point
// on.
func (k *kernel) Snapshot() ([]byte, error) {
	if k.err != nil {
		return nil, fmt.Errorf("snapshot: %w", k.err)
	}
	s := &ckptState{
		cycles:          k.cycles,
		cycleInInterval: k.cycleInInterval,
		ambient:         k.net.Ambient(),
		temps:           k.net.Temps(nil),
		buses:           make([]ckptBus, k.buses),
	}
	for b := range s.buses {
		s.buses[b] = ckptBus{
			total:   k.totalEnergy[b],
			lines:   k.lineTotals[b*k.width : (b+1)*k.width],
			win:     k.acc.BusState(b),
			est:     encoderState(k.encs[b]),
			samples: k.samples[b],
		}
	}
	if a := k.ad; a != nil {
		s.mode, s.occupancy, s.events = a.mode, a.occupancy, a.events
		s.ctlEsts = [2]encoding.State{encoderState(a.encs[modeBase]), encoderState(a.encs[modeCool])}
	}
	c := &ckptCodec{wire.Sealed(checkpointMagic, 0)}
	if err := k.walk(c, s); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return c.Seal()
}

// Restore overwrites the simulator's state from a Snapshot blob. The
// target must have been built with an equivalent configuration: same node,
// encoder (or adaptive controller tuning), width, length, interval,
// coupling depth, repeater setting and, at K > 1, bus count and bus
// coupling. A one-bus target reads v4 and v1 (static) or v5 and v3
// (adaptive); a v4 or v1 blob into an adaptive target, or a v5 or v3
// blob into a static one, is ErrCheckpointMismatch. A K > 1 target reads
// v6 and v2, and the K > 1 and one-bus layouts are ErrCheckpointCorrupt
// on each other's targets. Structural damage (truncation, bit rot, wrong
// magic or version, impossible field values) is rejected with
// ErrCheckpointCorrupt. Every rejection leaves the simulator untouched.
//
// Restore clears any sticky error, so it also resurrects a poisoned
// simulator back to its last known-good checkpoint. The sample callback
// is unchanged.
func (k *kernel) Restore(data []byte) error {
	c, err := wire.Open(data, checkpointMagic)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
	}
	var s ckptState
	if err := k.walk(&ckptCodec{c}, &s); err != nil {
		return err
	}

	// Everything validated; apply. The slices were sized from the target
	// and the ambient checked, so these setters cannot fail on the blob.
	// Pending counts of the current run are dropped first so they cannot
	// leak into the restored windows.
	k.acc.ResetAll()
	err = errors.Join(k.net.SetAmbient(s.ambient), k.net.SetTemps(s.temps))
	for b, bus := range s.buses {
		err = errors.Join(err, k.acc.SetBusState(b, bus.win))
	}
	if err != nil {
		return err
	}
	for b, bus := range s.buses {
		k.totalEnergy[b] = bus.total
		copy(k.lineTotals[b*k.width:], bus.lines)
		k.samples[b] = bus.samples
		if k.ad == nil {
			setEncoderState(k.encs[b], bus.est)
		}
	}
	if a := k.ad; a != nil {
		a.mode, a.occupancy, a.events = s.mode, s.occupancy, s.events
		for i, enc := range a.encs {
			setEncoderState(enc, s.ctlEsts[i])
		}
		k.encs[0] = a.active()
	}
	k.cycles = s.cycles
	k.cycleInInterval = s.cycleInInterval
	k.err = nil
	return nil
}

// walk codes a checkpoint after its magic, in the layout of its version:
// writing, it takes the version from the kernel's shape and s from
// Snapshot; reading, it gates the stored version on that shape, compares
// the fingerprint and decodes s, validating each field as it is read.
func (k *kernel) walk(c *ckptCodec, s *ckptState) error {
	v, flags := k.layout(), uint16(0)
	c.U16(&v)
	c.U16(&flags) // reserved
	if v == 0 || int(v) >= len(ckptLayouts) || ckptLayouts[v].multi != (k.buses > 1) {
		return fmt.Errorf("%w: unsupported version %d for a %d-bus target", ErrCheckpointCorrupt, v, k.buses)
	}
	l := ckptLayouts[v]
	if l.adaptive != (k.ad != nil) {
		return fmt.Errorf("%w: v%d checkpoint (adaptive %t) into a target with adaptive %t", ErrCheckpointMismatch, v, l.adaptive, k.ad != nil)
	}
	if err := c.fingerprint(k.fingerprint()); err != nil {
		return err
	}
	var names *[2]string // the controller's base and cool schemes
	if l.adaptive {
		names = &k.ad.names
	}
	c.U64(&s.cycles)
	c.U64(&s.cycleInInterval)
	if l.multi {
		c.thermal(s, k.buses*k.width)
	}
	wire.Each(&c.Codec, &s.buses, k.buses, func(bus *ckptBus) {
		c.line(&bus.total)
		wire.Each(&c.Codec, &bus.lines, k.width, c.line)
		c.window(&bus.win, k.width, l.counts)
		if l.adaptive {
			c.controller(s, names)
		} else {
			c.encState(&bus.est)
		}
		if !l.multi {
			c.thermal(s, k.width)
		}
		c.samples(&bus.samples, k.width, names)
	})
	return c.close()
}

// window codes a bus's open accumulator window and, in the counts
// layouts, its pair-pattern counts. Counts no such window could hold are
// corrupt: a wire switches at most once a cycle (T_i <= cycles), and a
// pair's count moves by one only when both wires switch
// (|P_ij| <= min(T_i, T_j)).
func (c *ckptCodec) window(w *energy.AccumulatorState, n int, counts bool) {
	c.U64(&w.Prev)
	c.Bool(&w.First)
	c.U64(&w.Cycles)
	c.U64(&w.IdleCycles)
	c.line(&w.Total)
	wire.Each(&c.Codec, &w.Lines, n, c.line)
	if !counts {
		return
	}
	wire.Each(&c.Codec, &w.Toggles, n, func(t *uint64) {
		c.U64(t)
		if *t > w.Cycles {
			c.Fail("a wire toggles %d times in a %d-cycle window", *t, w.Cycles)
		}
	})
	if !c.Writing() {
		w.Pairs = make([]int64, n*(n-1)/2)
	}
	p := w.Pairs
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.I64(&p[0])
			mag := uint64(p[0])
			if p[0] < 0 {
				mag = -mag
			}
			if mag > min(w.Toggles[i], w.Toggles[j]) {
				c.Fail("pair (%d, %d) count %d exceeds its wires' toggles %d and %d", i, j, p[0], w.Toggles[i], w.Toggles[j])
			}
			p = p[1:]
		}
	}
}

// controller codes the adaptive layouts' controller block.
func (c *ckptCodec) controller(s *ckptState, names *[2]string) {
	c.mode(&s.mode, 2)
	just := s.justSwitched()
	c.Bool(&just)
	c.U64(&s.occupancy[modeBase])
	c.U64(&s.occupancy[modeCool])
	c.encState(&s.ctlEsts[modeBase])
	c.encState(&s.ctlEsts[modeCool])
	wire.List(&c.Codec, &s.events, 8+2+8, func(ev *SwitchEvent) {
		c.U64(&ev.Cycle)
		to := modeOf(names, ev.To)
		c.mode(&to, 2)
		wire.Set(&c.Codec, &ev.To, names[to])
		wire.Set(&c.Codec, &ev.From, names[1-to])
		c.finite(&ev.TempK)
	})
	if just != s.justSwitched() {
		c.Fail("just-switched byte %t disagrees with the switch log", just)
	}
}

// modeOf returns the controller mode whose scheme is name.
func modeOf(names *[2]string, name string) int {
	if name == names[modeCool] {
		return modeCool
	}
	return modeBase
}

// thermal codes the ambient and n wire temperatures. A state the thermal
// network could not hold (ambient not finite and positive, a non-finite
// temperature) is corrupt.
func (c *ckptCodec) thermal(s *ckptState, n int) {
	c.finite(&s.ambient)
	if s.ambient <= 0 {
		c.Fail("non-positive ambient %g K", s.ambient)
	}
	wire.Each(&c.Codec, &s.temps, n, c.finite)
}

// samples codes a width-wire bus's sample list; with the controller's
// names (the adaptive layouts) each sample adds its mode and switched
// tags. A hottest wire off the bus, or wire temps other than none or one
// per wire, are corrupt.
func (c *ckptCodec) samples(ss *[]Sample, width int, names *[2]string) {
	minBytes := 8 + 6*8 + 8 + 4 // a sample without wire temps
	if names != nil {
		minBytes += 2
	}
	wire.List(&c.Codec, ss, minBytes, func(sm *Sample) {
		c.U64(&sm.EndCycle)
		for _, x := range [...]*float64{&sm.Energy, &sm.Self, &sm.CoupAdj, &sm.CoupNonAdj, &sm.AvgTemp, &sm.MaxTemp} {
			c.finite(x)
		}
		c.Int(&sm.MaxWire, 8)
		if sm.MaxWire < 0 || sm.MaxWire >= width {
			c.Fail("hottest wire %d on a %d-wire bus", sm.MaxWire, width)
		}
		wire.List(&c.Codec, &sm.WireTemps, 8, c.finite)
		if n := len(sm.WireTemps); n != 0 && n != width {
			c.Fail("%d wire temps in a sample of a %d-wire bus", n, width)
		}
		if names != nil {
			m := modeOf(names, sm.Encoder)
			c.mode(&m, 1) // the cool-mode bool
			wire.Set(&c.Codec, &sm.Encoder, names[m])
			c.Bool(&sm.Switched)
		}
	})
}

// encState codes an encoder state.
func (c *ckptCodec) encState(st *encoding.State) {
	c.U64(&st.Prev)
	c.U32(&st.Last)
	c.Bool(&st.First)
}

// encoderState returns e's state (zero for stateless schemes).
func encoderState(e encoding.Encoder) encoding.State {
	if se, ok := e.(encoding.Stateful); ok {
		return se.State()
	}
	return encoding.State{}
}

func setEncoderState(e encoding.Encoder, st encoding.State) {
	if se, ok := e.(encoding.Stateful); ok {
		se.SetState(st)
	}
}

// --- Fingerprint ------------------------------------------------------------

// fpField is one fingerprint entry. The dynamic type of val (string, bool,
// uint32, uint64, int64 or float64) is its wire type.
type fpField struct {
	name string
	val  any
}

// fingerprint lists the simulator's identity in its layout's order: v4
// (v1), v5 (v3) or v6 (v2).
func (k *kernel) fingerprint() []fpField {
	fp := []fpField{{"node", k.cfg.Node.Name}}
	if a := k.ad; a != nil {
		// The control law is pinned bit-exact: a restore into a
		// differently tuned controller would diverge at the next decision,
		// so it is a mismatch, not a resume.
		fp = append(fp,
			fpField{"adaptive_base", a.names[modeBase]},
			fpField{"adaptive_cool", a.names[modeCool]},
			fpField{"ceiling_k", a.cfg.CeilingK},
			fpField{"guard_k", a.cfg.GuardK},
			fpField{"hysteresis_k", a.cfg.HysteresisK})
	} else {
		fp = append(fp, fpField{"encoding", k.encs[0].Name()})
	}
	fp = append(fp, busFingerprint(k.width, k.interval, k.length, k.cfg.Config)...)
	if k.buses > 1 {
		fp = append(fp,
			fpField{"buses", uint32(k.buses)},
			fpField{"bus_coupling_disabled", k.cfg.DisableBusCoupling},
			fpField{"bus_gap_pitches", k.cfg.BusGapPitches})
	}
	return fp
}

// busFingerprint is the per-bus shape every layout carries. Every "keep
// all pairs" spelling of CouplingDepth folds into -1, so fingerprints
// compare by effect rather than literal value.
func busFingerprint(width int, interval uint64, length float64, cfg Config) []fpField {
	return []fpField{
		{"width", uint32(width)},
		{"interval_cycles", interval},
		{"length_m", length},
		{"coupling_depth", int64(max(cfg.CouplingDepth, -1))},
		{"no_repeaters", cfg.NoRepeaters},
	}
}

// fingerprint codes want, the target's fingerprint, and compares what was
// coded with it, floats by bit pattern (writing, the two are the same).
// Truncation is corrupt; the first differing field is a mismatch that
// names it.
func (c *ckptCodec) fingerprint(want []fpField) error {
	got := make([]any, len(want))
	for i, f := range want {
		got[i] = c.value(f.val)
	}
	if c.Err() != nil {
		return c.close()
	}
	for i, f := range want {
		same := got[i] == f.val
		if x, ok := f.val.(float64); ok {
			same = math.Float64bits(got[i].(float64)) == math.Float64bits(x)
		}
		if !same {
			return fmt.Errorf("%w: %s is %v in the checkpoint, %v in the target", ErrCheckpointMismatch, f.name, got[i], f.val)
		}
	}
	return nil
}

// value codes a field of v's wire type and returns the coded value (v
// itself when writing).
func (c *ckptCodec) value(v any) any {
	switch x := v.(type) {
	case string:
		c.Str(&x, 2)
		v = x
	case bool:
		c.Bool(&x)
		v = x
	case uint32:
		c.U32(&x)
		v = x
	case uint64:
		c.U64(&x)
		v = x
	case int64:
		c.I64(&x)
		v = x
	case float64:
		c.F64(&x)
		v = x
	}
	return v
}

// --- Field rules ------------------------------------------------------------

// ckptCodec is the shared codec (internal/wire) plus the NBCP field rules
// below.
type ckptCodec struct{ wire.Codec }

// close reports a decode error, or bytes left after the payload, as
// ErrCheckpointCorrupt.
func (c *ckptCodec) close() error {
	if err := c.Close(); err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
	}
	return nil
}

// finite codes an f64 that must be finite.
func (c *ckptCodec) finite(p *float64) {
	c.F64(p)
	if math.IsNaN(*p) || math.IsInf(*p, 0) {
		c.Fail("non-finite value %g", *p)
	}
}

// line codes a line energy, each component finite.
func (c *ckptCodec) line(le *energy.LineEnergy) {
	c.finite(&le.Self)
	c.finite(&le.CoupAdj)
	c.finite(&le.CoupNonAdj)
}

// mode codes a controller mode index (modeBase or modeCool) in size
// bytes: a u16, or the one-byte cool-mode bool.
func (c *ckptCodec) mode(m *int, size int) {
	v := c.Uint(uint64(*m), size)
	if v > modeCool {
		c.Fail("adaptive mode %d out of range", v)
	}
	wire.Set(&c.Codec, m, int(min(v, modeCool)))
}
