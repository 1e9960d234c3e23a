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
// handles six layouts, named by the version word; the kernel's writer
// picks one from its shape alone, so a Simulator and a one-bus MultiSim
// write the same bytes:
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
// The transition-key memo is never serialized: a restored simulator
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

// layout returns the version Snapshot writes: v6 for K > 1 buses, else
// v5 under the adaptive controller and v4 for a static encoder.
func (k *kernel) layout() uint16 {
	switch {
	case k.buses > 1:
		return checkpointVersionMulti
	case k.ad != nil:
		return checkpointVersionAdaptive
	}
	return checkpointVersion
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
	w := newCkptWriter(k.layout(), k.fingerprint())
	w.u64(k.cycles)
	w.u64(k.cycleInInterval)
	// The K > 1 layout leads with the whole grid; the one-bus layouts
	// put the bus's wires between its bus block and its samples.
	temps := k.net.Temps(nil)
	if k.buses > 1 {
		w.thermal(k.net.Ambient(), temps)
	}
	for b := 0; b < k.buses; b++ {
		win := k.acc.BusState(b)
		w.busEnergy(k.totalEnergy[b], k.lineTotals[b*k.width:(b+1)*k.width], win)
		w.counts(win.Toggles, win.Pairs)
		if k.ad != nil {
			w.controller(k.ad)
		} else {
			w.encState(k.encs[b])
		}
		if k.buses == 1 {
			w.thermal(k.net.Ambient(), temps)
		}
		w.samples(k.samples[b], k.ad)
	}
	return w.seal(), nil
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
	r, v, err := openCheckpoint(data)
	if err != nil {
		return err
	}
	multi := v == checkpointVersionMulti || v == checkpointVersionV2
	adaptive := v == checkpointVersionAdaptive || v == checkpointVersionV3
	switch {
	case v < checkpointVersionV1 || v > checkpointVersionMulti || multi != (k.buses > 1):
		return fmt.Errorf("%w: unsupported version %d for a %d-bus target", ErrCheckpointCorrupt, v, k.buses)
	case adaptive && k.ad == nil:
		return fmt.Errorf("%w: v%d (adaptive) checkpoint, but the target has a static encoder", ErrCheckpointMismatch, v)
	case !adaptive && k.ad != nil:
		return fmt.Errorf("%w: v%d (static-encoder) checkpoint, but the target runs the adaptive controller", ErrCheckpointMismatch, v)
	}
	if err := r.fingerprint(k.fingerprint()); err != nil {
		return err
	}

	cycles, cycleInInterval := r.u64(), r.u64()
	var ambient float64
	var temps []float64
	if multi {
		ambient, temps = r.thermal(k.buses * k.width)
	}
	totalEnergy := make([]energy.LineEnergy, k.buses)
	lineTotals := make([]energy.LineEnergy, 0, k.buses*k.width)
	wins := make([]energy.AccumulatorState, k.buses)
	ests := make([]encoding.State, k.buses)
	var ctl adaptiveState
	var ctlEsts [2]encoding.State // the controller's base and cool encoders
	samples := make([][]Sample, k.buses)
	for b := 0; b < k.buses && r.err == nil; b++ {
		var lines []energy.LineEnergy
		totalEnergy[b], lines, wins[b] = r.busEnergy(k.width)
		if v >= checkpointVersion {
			wins[b].Toggles, wins[b].Pairs = r.counts(k.width, wins[b].Cycles)
		}
		lineTotals = append(lineTotals, lines...)
		if k.ad != nil {
			ctl, ctlEsts = r.controller(k.ad)
		} else {
			ests[b] = r.encState()
		}
		if !multi {
			ambient, temps = r.thermal(k.width)
		}
		samples[b] = r.samples(k.ad)
	}
	if err := r.close(); err != nil {
		return err
	}

	// Everything validated; apply. The slices were sized from the target
	// and the ambient checked, so these setters cannot fail on the blob.
	// Pending counts of the current run are dropped first so they cannot
	// leak into the restored windows.
	k.acc.ResetAll()
	err = errors.Join(k.net.SetAmbient(ambient), k.net.SetTemps(temps))
	for b := range wins {
		err = errors.Join(err, k.acc.SetBusState(b, wins[b]))
	}
	if err != nil {
		return err
	}
	if a := k.ad; a != nil {
		*a = ctl
		for i, enc := range a.encs {
			setEncoderState(enc, ctlEsts[i])
		}
		k.encs[0] = a.active()
	} else {
		for b, enc := range k.encs {
			setEncoderState(enc, ests[b])
		}
	}
	k.cycles = cycles
	k.cycleInInterval = cycleInInterval
	copy(k.totalEnergy, totalEnergy)
	copy(k.lineTotals, lineTotals)
	k.samples = samples
	k.err = nil
	return nil
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
