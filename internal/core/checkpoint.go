package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"nanobus/internal/encoding"
	"nanobus/internal/energy"
)

// Checkpoint format (NBCP). A snapshot is a self-describing binary blob,
// deterministic down to the byte for a given simulator state. One codec
// handles six layouts, named by the version word:
//
//	v4  static-encoder Simulator, and a K == 1 MultiSim (its blobs are
//	    interchangeable with Simulator.Snapshot/Restore)
//	v6  MultiSim with K > 1 buses
//	v5  Simulator running the adaptive controller
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
// length and its bytes; a bool is one byte; a line energy is three f64
// (self, adjacent coupling, non-adjacent coupling).
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
//	scalar body  bus block | thermal | samples
//	v2, v6 body  thermal (K*W temperatures, bus-major) |
//	             per bus: bus block | samples
//	bus block    cumulative total, W per-line totals, accumulator window
//	             (held word u64, first bool, cycles u64, idle cycles u64,
//	             window total, W window lines), then
//	  v4, v5, v6 window counts: W toggle counts u64, W(W-1)/2 pair
//	             counts i64 (pairs i < j, row-major), then
//	  v1, v2,    encoder state: prev u64, last u32, first bool (zero for
//	  v4, v6     stateless schemes)
//	  v3, v5     controller: mode u16, just-switched bool, base and cool
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
// The K > 1 transition-key memo is never serialized: a restored simulator
// re-warms it (the "dropped and rewarmed" policy). Snapshot first drains
// the memo's pending counts into the windows. Every window is integers,
// so neither the drain nor the cold memo's different eviction schedule
// changes a later result: a restored simulator, K = 1 or K > 1, continues
// bit-identically to the source, and so does the source itself.
//
// Restore decodes and validates the whole blob before it touches the
// target: envelope, version, fingerprint, every count against the
// remaining payload, a finite positive ambient and finite temperatures.
// A rejected blob leaves the simulator exactly as it was.

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

const (
	checkpointMagic           = "NBCP"
	checkpointVersion         = 4 // static-encoder Simulator
	checkpointVersionMulti    = 6 // MultiSim, K > 1
	checkpointVersionAdaptive = 5 // adaptive Simulator
	// The float-window layouts, read only.
	checkpointVersionV1 = 1 // static-encoder Simulator
	checkpointVersionV2 = 2 // MultiSim, K > 1
	checkpointVersionV3 = 3 // adaptive Simulator
)

// sampleMinBytes is the encoded size of a sample with no wire temps, used
// to sanity-bound decoded counts before allocating.
const sampleMinBytes = 8 + 6*8 + 8 + 4

// Snapshot serializes the simulator's full in-flight state into a
// versioned, checksummed, deterministic binary checkpoint. Snapshotting a
// poisoned simulator fails (its state is not trustworthy); everything else
// — including a partially filled sampling interval — round-trips exactly:
// a simulator restored from the snapshot emits bit-identical samples,
// totals and temperatures from that point on.
func (s *Simulator) Snapshot() ([]byte, error) {
	if s.err != nil {
		return nil, fmt.Errorf("snapshot: %w", s.err)
	}
	version := uint16(checkpointVersion)
	if s.ad != nil {
		version = checkpointVersionAdaptive
	}
	w := newCkptWriter(version, s.fingerprint())
	w.u64(s.cycles)
	w.u64(s.cycleInInterval)
	win := s.acc.State()
	w.busEnergy(s.totalEnergy, s.lineTotals, win)
	w.counts(win.Toggles, win.Pairs)
	if s.ad != nil {
		w.controller(s.ad)
	} else {
		w.encState(s.enc)
	}
	w.thermal(s.net.Ambient(), s.net.Temps(nil))
	w.samples(s.samples, s.ad)
	return w.seal(), nil
}

// Restore overwrites the simulator's state from a Snapshot blob. The
// target must have been built with an equivalent configuration: same node,
// encoder (or adaptive controller tuning), width, length, interval,
// coupling depth and repeater setting — anything else, including a v1 or
// v4 blob into an adaptive target or a v3 or v5 blob into a static one, is
// rejected with ErrCheckpointMismatch. Structural damage (truncation, bit rot,
// wrong magic or version, impossible field values) is rejected with
// ErrCheckpointCorrupt. Both rejections leave the simulator untouched.
//
// Restore clears any sticky error, so it also resurrects a poisoned
// simulator back to its last known-good checkpoint. The OnSample callback
// is unchanged.
func (s *Simulator) Restore(data []byte) error {
	r, v, err := openCheckpoint(data)
	if err != nil {
		return err
	}
	adaptive := v == checkpointVersionAdaptive || v == checkpointVersionV3
	switch {
	case v != checkpointVersion && v != checkpointVersionV1 && !adaptive:
		return fmt.Errorf("%w: unsupported version %d (want %d, %d, %d or %d)", ErrCheckpointCorrupt, v,
			checkpointVersion, checkpointVersionAdaptive, checkpointVersionV1, checkpointVersionV3)
	case !adaptive && s.ad != nil:
		return fmt.Errorf("%w: v%d (static-encoder) checkpoint, but the target runs the adaptive controller", ErrCheckpointMismatch, v)
	case adaptive && s.ad == nil:
		return fmt.Errorf("%w: v%d (adaptive) checkpoint, but the target has a static encoder", ErrCheckpointMismatch, v)
	}
	if err := r.fingerprint(s.fingerprint()); err != nil {
		return err
	}

	width := s.enc.Width()
	cycles, cycleInInterval := r.u64(), r.u64()
	total, lineTotals, win := r.busEnergy(width)
	if v == checkpointVersion || v == checkpointVersionAdaptive {
		win.Toggles, win.Pairs = r.counts(width, win.Cycles)
	}
	var ctl adaptiveState
	var ests [2]encoding.State // static: the encoder's; adaptive: base and cool
	if s.ad != nil {
		ctl, ests = r.controller(s.ad)
	} else {
		ests[0] = r.encState()
	}
	ambient, temps := r.thermal(width)
	samples := r.samples(s.ad)
	if err := r.close(); err != nil {
		return err
	}

	// Everything validated; apply. The slices were sized from the target
	// and the ambient checked, so these setters cannot fail on the blob.
	if err := errors.Join(s.acc.SetState(win), s.net.SetAmbient(ambient), s.net.SetTemps(temps)); err != nil {
		return err
	}
	if a := s.ad; a != nil {
		*a = ctl
		for i, enc := range a.encs {
			setEncoderState(enc, ests[i])
		}
		s.enc = a.encs[a.mode]
	} else {
		setEncoderState(s.enc, ests[0])
	}
	s.cycles = cycles
	s.cycleInInterval = cycleInInterval
	s.totalEnergy = total
	copy(s.lineTotals, lineTotals)
	s.samples = samples
	s.err = nil
	return nil
}

// Snapshot serializes the multi-bus simulator (see Simulator.Snapshot for
// the contract; K == 1 produces a v4 blob).
func (m *MultiSim) Snapshot() ([]byte, error) {
	if m.single != nil {
		return m.single.Snapshot()
	}
	if m.err != nil {
		return nil, fmt.Errorf("snapshot: %w", m.err)
	}
	w := newCkptWriter(checkpointVersionMulti, m.fingerprint())
	w.u64(m.cycles)
	w.u64(m.cycleInInterval)
	w.thermal(m.grid.Ambient(), m.grid.Temps(nil))
	for k := 0; k < m.buses; k++ {
		win := m.acc.BusState(k)
		w.busEnergy(m.totalEnergy[k], m.lineTotals[k*m.width:(k+1)*m.width], win)
		w.counts(win.Toggles, win.Pairs)
		w.encState(m.encs[k])
		w.samples(m.samples[k], nil)
	}
	return w.seal(), nil
}

// Restore overwrites the multi-bus simulator's state from a Snapshot blob
// (see Simulator.Restore for the validation contract). K == 1 delegates
// to Simulator.Restore; K > 1 accepts only v6 and v2 and reports any
// other version as ErrCheckpointCorrupt.
func (m *MultiSim) Restore(data []byte) error {
	if m.single != nil {
		return m.single.Restore(data)
	}
	r, v, err := openCheckpoint(data)
	if err != nil {
		return err
	}
	if v != checkpointVersionMulti && v != checkpointVersionV2 {
		return fmt.Errorf("%w: unsupported version %d (want %d or %d for a multi-bus target)", ErrCheckpointCorrupt, v,
			checkpointVersionMulti, checkpointVersionV2)
	}
	if err := r.fingerprint(m.fingerprint()); err != nil {
		return err
	}

	cycles, cycleInInterval := r.u64(), r.u64()
	ambient, temps := r.thermal(m.buses * m.width)
	totalEnergy := make([]energy.LineEnergy, m.buses)
	lineTotals := make([]energy.LineEnergy, 0, m.buses*m.width)
	wins := make([]energy.AccumulatorState, m.buses)
	ests := make([]encoding.State, m.buses)
	samples := make([][]Sample, m.buses)
	for k := 0; k < m.buses && r.err == nil; k++ {
		var lines []energy.LineEnergy
		totalEnergy[k], lines, wins[k] = r.busEnergy(m.width)
		if v == checkpointVersionMulti {
			wins[k].Toggles, wins[k].Pairs = r.counts(m.width, wins[k].Cycles)
		}
		lineTotals = append(lineTotals, lines...)
		ests[k] = r.encState()
		samples[k] = r.samples(nil)
	}
	if err := r.close(); err != nil {
		return err
	}

	// Everything validated; apply (the setters cannot fail on the blob,
	// as in Simulator.Restore). Drop pending counts from the current run
	// first so they cannot leak into the restored windows.
	m.acc.ResetAll()
	err = errors.Join(m.grid.SetAmbient(ambient), m.grid.SetTemps(temps))
	for k := range wins {
		err = errors.Join(err, m.acc.SetBusState(k, wins[k]))
		setEncoderState(m.encs[k], ests[k])
	}
	if err != nil {
		return err
	}
	m.cycles = cycles
	m.cycleInInterval = cycleInInterval
	copy(m.totalEnergy, totalEnergy)
	copy(m.lineTotals, lineTotals)
	m.samples = samples
	m.err = nil
	return nil
}

// --- Fingerprint ------------------------------------------------------------

// fpField is one fingerprint entry. The dynamic type of val (string, bool,
// uint32, uint64, int64 or float64) is its wire type.
type fpField struct {
	name string
	val  any
}

// fingerprint lists the simulator's identity in v4 (v1) or v5 (v3)
// layout order.
func (s *Simulator) fingerprint() []fpField {
	fp := []fpField{{"node", s.cfg.Node.Name}}
	if a := s.ad; a != nil {
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
		fp = append(fp, fpField{"encoding", s.enc.Name()})
	}
	return append(fp, busFingerprint(s.enc.Width(), s.interval, s.length, s.cfg)...)
}

// fingerprint lists the multi-bus simulator's identity in v6 (v2) layout
// order.
func (m *MultiSim) fingerprint() []fpField {
	fp := append([]fpField{{"node", m.cfg.Node.Name}, {"encoding", m.encs[0].Name()}},
		busFingerprint(m.width, m.interval, m.length, m.cfg.Config)...)
	return append(fp,
		fpField{"buses", uint32(m.buses)},
		fpField{"bus_coupling_disabled", m.cfg.DisableBusCoupling},
		fpField{"bus_gap_pitches", m.cfg.BusGapPitches})
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

// --- Envelope and shared sections ------------------------------------------

// newCkptWriter opens a checkpoint: envelope header, then fingerprint.
func newCkptWriter(version uint16, fp []fpField) *ckptWriter {
	w := &ckptWriter{buf: []byte(checkpointMagic)}
	w.u16(version)
	w.u16(0) // flags, reserved
	for _, f := range fp {
		w.value(f.val)
	}
	return w
}

// seal appends the CRC trailer and returns the finished blob.
func (w *ckptWriter) seal() []byte {
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// openCheckpoint checks the envelope (length, magic, CRC) and returns the
// version and a reader over the body, positioned after the flags word.
func openCheckpoint(data []byte) (*ckptReader, uint16, error) {
	const trailerLen = 4
	if len(data) < len(checkpointMagic)+2+2+trailerLen {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than any checkpoint", ErrCheckpointCorrupt, len(data))
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, data[:len(checkpointMagic)])
	}
	body, tail := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCheckpointCorrupt, want, got)
	}
	r := &ckptReader{buf: body, off: len(checkpointMagic)}
	v := r.u16()
	r.u16() // flags, reserved
	return r, v, nil
}

// close reports a decode error, or bytes left after the payload, as
// ErrCheckpointCorrupt.
func (r *ckptReader) close() error {
	if r.err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpointCorrupt, r.err)
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes after the payload", ErrCheckpointCorrupt, len(r.buf)-r.off)
	}
	return nil
}

// fingerprint reads the stored fingerprint and compares it with the
// target's, floats by bit pattern. Truncation is corrupt; the first
// differing field is a mismatch that names it.
func (r *ckptReader) fingerprint(want []fpField) error {
	got := make([]any, len(want))
	for i, f := range want {
		got[i] = r.value(f.val)
	}
	if r.err != nil {
		return r.close()
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

func (w *ckptWriter) value(v any) {
	switch v := v.(type) {
	case string:
		w.str(v)
	case bool:
		w.bool(v)
	case uint32:
		w.u32(v)
	case uint64:
		w.u64(v)
	case int64:
		w.i64(v)
	case float64:
		w.f64(v)
	}
}

// value reads a field of like's wire type.
func (r *ckptReader) value(like any) any {
	switch like.(type) {
	case string:
		return r.str()
	case bool:
		return r.bool()
	case uint32:
		return r.u32()
	case uint64:
		return r.u64()
	case int64:
		return r.i64()
	default:
		return r.f64()
	}
}

func (w *ckptWriter) lines(les []energy.LineEnergy) {
	for _, le := range les {
		w.lineEnergy(le)
	}
}

func (r *ckptReader) lines(n int) []energy.LineEnergy {
	les := make([]energy.LineEnergy, n)
	for i := range les {
		les[i] = r.lineEnergy()
	}
	return les
}

// busEnergy writes a bus's cumulative totals and its open accumulator
// window.
func (w *ckptWriter) busEnergy(total energy.LineEnergy, lines []energy.LineEnergy, win energy.AccumulatorState) {
	w.lineEnergy(total)
	w.lines(lines)
	w.u64(win.Prev)
	w.bool(win.First)
	w.u64(win.Cycles)
	w.u64(win.IdleCycles)
	w.lineEnergy(win.Total)
	w.lines(win.Lines)
}

func (r *ckptReader) busEnergy(width int) (energy.LineEnergy, []energy.LineEnergy, energy.AccumulatorState) {
	total, lines := r.lineEnergy(), r.lines(width)
	return total, lines, energy.AccumulatorState{Prev: r.u64(), First: r.bool(), Cycles: r.u64(),
		IdleCycles: r.u64(), Total: r.lineEnergy(), Lines: r.lines(width)}
}

// counts writes v4/v5/v6's window counts.
func (w *ckptWriter) counts(toggles []uint64, pairs []int64) {
	for _, t := range toggles {
		w.u64(t)
	}
	for _, p := range pairs {
		w.i64(p)
	}
}

// counts reads v4/v5/v6's window counts for a width-n bus whose window holds
// cycles cycles. Counts no such window could hold are corrupt: a wire
// switches at most once a cycle (T_i <= cycles), and a pair's count moves
// by one only when both wires switch (|P_ij| <= min(T_i, T_j)).
func (r *ckptReader) counts(n int, cycles uint64) ([]uint64, []int64) {
	toggles := make([]uint64, n)
	for i := range toggles {
		toggles[i] = r.u64()
		if r.err == nil && toggles[i] > cycles {
			r.err = fmt.Errorf("wire %d toggles %d times in a %d-cycle window", i, toggles[i], cycles)
		}
	}
	pairs := make([]int64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := r.i64()
			mag := uint64(p)
			if p < 0 {
				mag = -mag
			}
			if r.err == nil && mag > min(toggles[i], toggles[j]) {
				r.err = fmt.Errorf("pair (%d, %d) count %d exceeds its wires' toggles %d and %d", i, j, p, toggles[i], toggles[j])
			}
			pairs = append(pairs, p)
		}
	}
	return toggles, pairs
}

// encState writes e's state (zero for stateless schemes).
func (w *ckptWriter) encState(e encoding.Encoder) {
	var st encoding.State
	if se, ok := e.(encoding.Stateful); ok {
		st = se.State()
	}
	w.u64(st.Prev)
	w.u32(st.Last)
	w.bool(st.First)
}

func (r *ckptReader) encState() encoding.State {
	return encoding.State{Prev: r.u64(), Last: r.u32(), First: r.bool()}
}

func setEncoderState(e encoding.Encoder, st encoding.State) {
	if se, ok := e.(encoding.Stateful); ok {
		se.SetState(st)
	}
}

// controller writes the adaptive layouts' controller block.
func (w *ckptWriter) controller(a *adaptiveState) {
	w.u16(uint16(a.mode))
	w.bool(a.justSwitch)
	w.u64(a.occupancy[modeBase])
	w.u64(a.occupancy[modeCool])
	for _, enc := range a.encs {
		w.encState(enc)
	}
	w.u32(uint32(len(a.events)))
	for _, ev := range a.events {
		w.u64(ev.Cycle)
		if ev.To == a.names[modeCool] {
			w.u16(modeCool)
		} else {
			w.u16(modeBase)
		}
		w.f64(ev.TempK)
	}
}

// controller decodes the adaptive layouts' controller block into a copy of a, plus the
// base and cool encoder states.
func (r *ckptReader) controller(a *adaptiveState) (adaptiveState, [2]encoding.State) {
	ctl := *a
	ctl.mode = r.mode()
	ctl.justSwitch = r.bool()
	ctl.occupancy = [2]uint64{r.u64(), r.u64()}
	ests := [2]encoding.State{r.encState(), r.encState()}
	n := int(r.u32())
	const eventBytes = 8 + 2 + 8
	if r.err == nil && n > r.remaining()/eventBytes {
		r.err = fmt.Errorf("event count %d exceeds the remaining payload", n)
	}
	ctl.events = nil
	if r.err == nil && n > 0 {
		ctl.events = make([]SwitchEvent, n)
		for i := range ctl.events {
			ev := &ctl.events[i]
			ev.Cycle = r.u64()
			to := r.mode()
			ev.To, ev.From = a.names[to], a.names[1-to]
			ev.TempK = r.temp()
		}
	}
	return ctl, ests
}

// mode reads a controller mode index (modeBase or modeCool).
func (r *ckptReader) mode() int {
	m := int(r.u16())
	if r.err == nil && m > modeCool {
		r.err = fmt.Errorf("adaptive mode %d out of range", m)
	}
	return min(m, modeCool)
}

func (w *ckptWriter) thermal(ambient float64, temps []float64) {
	w.f64(ambient)
	for _, t := range temps {
		w.f64(t)
	}
}

// thermal reads the ambient and n wire temperatures. A state the thermal
// network could not hold (ambient not finite and positive, a non-finite
// temperature) is corrupt.
func (r *ckptReader) thermal(n int) (float64, []float64) {
	ambient := r.temp()
	if r.err == nil && ambient <= 0 {
		r.err = fmt.Errorf("non-positive ambient %g K", ambient)
	}
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = r.temp()
	}
	return ambient, temps
}

// temp reads a temperature, which must be finite.
func (r *ckptReader) temp() float64 {
	t := r.f64()
	if r.err == nil && (math.IsNaN(t) || math.IsInf(t, 0)) {
		r.err = fmt.Errorf("non-finite temperature %g K at offset %d", t, r.off-8)
	}
	return t
}

// samples writes a sample list; a non-nil ad adds the adaptive per-sample mode
// and switched tags.
func (w *ckptWriter) samples(ss []Sample, ad *adaptiveState) {
	w.u32(uint32(len(ss)))
	for _, sm := range ss {
		w.u64(sm.EndCycle)
		for _, x := range [...]float64{sm.Energy, sm.Self, sm.CoupAdj, sm.CoupNonAdj, sm.AvgTemp, sm.MaxTemp} {
			w.f64(x)
		}
		w.i64(int64(sm.MaxWire))
		w.u32(uint32(len(sm.WireTemps)))
		for _, t := range sm.WireTemps {
			w.f64(t)
		}
		if ad != nil {
			w.bool(sm.Encoder == ad.names[modeCool])
			w.bool(sm.Switched)
		}
	}
}

func (r *ckptReader) samples(ad *adaptiveState) []Sample {
	n := int(r.u32())
	minBytes := sampleMinBytes
	if ad != nil {
		minBytes += 2
	}
	if r.err == nil && n > r.remaining()/minBytes {
		r.err = fmt.Errorf("sample count %d exceeds the remaining payload", n)
	}
	if r.err != nil || n == 0 {
		return nil
	}
	ss := make([]Sample, n)
	for i := range ss {
		sm := &ss[i]
		sm.EndCycle = r.u64()
		sm.Energy, sm.Self, sm.CoupAdj, sm.CoupNonAdj = r.f64(), r.f64(), r.f64(), r.f64()
		sm.AvgTemp, sm.MaxTemp = r.temp(), r.temp()
		sm.MaxWire = int(r.i64())
		if nwt := int(r.u32()); r.err == nil && nwt > 0 {
			if nwt > r.remaining()/8 {
				r.err = fmt.Errorf("wire-temp count %d exceeds the remaining payload", nwt)
				return nil
			}
			sm.WireTemps = make([]float64, nwt)
			for j := range sm.WireTemps {
				sm.WireTemps[j] = r.temp()
			}
		}
		if ad != nil {
			sm.Encoder = ad.names[modeBase]
			if r.bool() {
				sm.Encoder = ad.names[modeCool]
			}
			sm.Switched = r.bool()
		}
	}
	return ss
}

// --- Binary plumbing --------------------------------------------------------

// ckptWriter appends fixed-width little-endian fields to a growing buffer.
type ckptWriter struct{ buf []byte }

func (w *ckptWriter) u16(v uint16)  { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *ckptWriter) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *ckptWriter) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *ckptWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *ckptWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *ckptWriter) bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}
func (w *ckptWriter) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *ckptWriter) lineEnergy(le energy.LineEnergy) {
	w.f64(le.Self)
	w.f64(le.CoupAdj)
	w.f64(le.CoupNonAdj)
}

// ckptReader consumes fixed-width little-endian fields with a sticky
// error, so decode sequences read linearly and check once.
type ckptReader struct {
	buf []byte
	off int
	err error
}

func (r *ckptReader) remaining() int { return len(r.buf) - r.off }

// take consumes n bytes; once the reader has failed it returns zeros.
func (r *ckptReader) take(n int) []byte {
	if r.err == nil && r.remaining() < n {
		r.err = fmt.Errorf("truncated at offset %d (want %d more bytes, have %d)", r.off, n, r.remaining())
	}
	if r.err != nil {
		return make([]byte, n)
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

func (r *ckptReader) u16() uint16  { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *ckptReader) u32() uint32  { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *ckptReader) u64() uint64  { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *ckptReader) i64() int64   { return int64(r.u64()) }
func (r *ckptReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *ckptReader) bool() bool   { return r.take(1)[0] != 0 }
func (r *ckptReader) str() string  { return string(r.take(int(r.u16()))) }

func (r *ckptReader) lineEnergy() energy.LineEnergy {
	return energy.LineEnergy{Self: r.f64(), CoupAdj: r.f64(), CoupNonAdj: r.f64()}
}
