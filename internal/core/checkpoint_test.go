package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/faultinject"
	"nanobus/internal/itrs"
	"nanobus/internal/wire"
)

// ckptWords returns a deterministic pseudo-random word stream.
func ckptWords(seed int64, n int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32()
	}
	return out
}

// sameSamples requires bit-identical sample records.
func sameSamples(t *testing.T, label string, a, b []Sample) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: sample counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		same := x.EndCycle == y.EndCycle && x.MaxWire == y.MaxWire &&
			math.Float64bits(x.Energy) == math.Float64bits(y.Energy) &&
			math.Float64bits(x.Self) == math.Float64bits(y.Self) &&
			math.Float64bits(x.CoupAdj) == math.Float64bits(y.CoupAdj) &&
			math.Float64bits(x.CoupNonAdj) == math.Float64bits(y.CoupNonAdj) &&
			math.Float64bits(x.AvgTemp) == math.Float64bits(y.AvgTemp) &&
			math.Float64bits(x.MaxTemp) == math.Float64bits(y.MaxTemp) &&
			len(x.WireTemps) == len(y.WireTemps)
		if same {
			for j := range x.WireTemps {
				if math.Float64bits(x.WireTemps[j]) != math.Float64bits(y.WireTemps[j]) {
					same = false
					break
				}
			}
		}
		if !same {
			t.Fatalf("%s: sample %d differs:\n  %+v\n  %+v", label, i, x, y)
		}
	}
}

// TestSnapshotRestoreBitIdentical is the durability contract: snapshot a
// simulator mid-run (mid-interval, with a stateful encoder), restore into
// a fresh simulator, drive both with the same remaining stream, and
// require every subsequent sample, total, temperature and cycle count to
// be bit-identical to the uninterrupted run.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	cfg := Config{
		CouplingDepth:  -1,
		IntervalCycles: 300,
		Encoder:        encoding.NewBI(),
		TrackWireTemps: true,
	}
	words := ckptWords(7, 5000)
	cut := 1111 // mid-interval: 1111 % 300 != 0

	uninterrupted := newSim(t, Config{CouplingDepth: -1, IntervalCycles: 300, Encoder: encoding.NewBI(), TrackWireTemps: true})
	ctx := context.Background()
	if _, err := uninterrupted.StepBatch(ctx, words); err != nil {
		t.Fatal(err)
	}
	if err := uninterrupted.Finish(); err != nil {
		t.Fatal(err)
	}

	primary := newSim(t, cfg)
	if _, err := primary.StepBatch(ctx, words[:cut]); err != nil {
		t.Fatal(err)
	}
	blob, err := primary.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	blob2, err := primary.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("two snapshots of the same state are not byte-identical")
	}

	restored := newSim(t, Config{CouplingDepth: -1, IntervalCycles: 300, Encoder: encoding.NewBI(), TrackWireTemps: true})
	if err := restored.Restore(blob); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Cycles() != uint64(cut) {
		t.Fatalf("restored cycle count %d, want %d", restored.Cycles(), cut)
	}
	if _, err := restored.StepBatch(ctx, words[cut:]); err != nil {
		t.Fatal(err)
	}
	if err := restored.Finish(); err != nil {
		t.Fatal(err)
	}

	sameSamples(t, "restored vs uninterrupted", restored.Samples(), uninterrupted.Samples())
	rt, lt := restored.TotalEnergy(), uninterrupted.TotalEnergy()
	if math.Float64bits(rt.Total()) != math.Float64bits(lt.Total()) ||
		math.Float64bits(rt.Self) != math.Float64bits(lt.Self) ||
		math.Float64bits(rt.CoupAdj) != math.Float64bits(lt.CoupAdj) ||
		math.Float64bits(rt.CoupNonAdj) != math.Float64bits(lt.CoupNonAdj) {
		t.Fatalf("totals differ: %+v vs %+v", rt, lt)
	}
	a, b := restored.Temps(), uninterrupted.Temps()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("wire %d temp differs: %.17g vs %.17g", i, a[i], b[i])
		}
	}
	if restored.Cycles() != uninterrupted.Cycles() {
		t.Fatalf("cycles differ: %d vs %d", restored.Cycles(), uninterrupted.Cycles())
	}
}

// TestSnapshotOnIntervalBoundary checkpoints at exactly a sampling-interval
// boundary (cycleInInterval == 0, the just-flushed state) and requires the
// resumed run to match the uninterrupted one.
func TestSnapshotOnIntervalBoundary(t *testing.T) {
	const interval = 250
	words := ckptWords(13, 2000)
	ctx := context.Background()

	uninterrupted := newSim(t, Config{IntervalCycles: interval})
	if _, err := uninterrupted.StepBatch(ctx, words); err != nil {
		t.Fatal(err)
	}
	if err := uninterrupted.Finish(); err != nil {
		t.Fatal(err)
	}

	primary := newSim(t, Config{IntervalCycles: interval})
	if _, err := primary.StepBatch(ctx, words[:3*interval]); err != nil {
		t.Fatal(err)
	}
	blob, err := primary.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := newSim(t, Config{IntervalCycles: interval})
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if len(restored.Samples()) != 3 {
		t.Fatalf("restored %d samples, want 3", len(restored.Samples()))
	}
	if _, err := restored.StepBatch(ctx, words[3*interval:]); err != nil {
		t.Fatal(err)
	}
	if err := restored.Finish(); err != nil {
		t.Fatal(err)
	}
	sameSamples(t, "boundary restore", restored.Samples(), uninterrupted.Samples())
	if math.Float64bits(restored.TotalEnergy().Total()) != math.Float64bits(uninterrupted.TotalEnergy().Total()) {
		t.Fatal("totals differ after boundary restore")
	}
}

// TestRestoreRejectsMismatchedConfig feeds a checkpoint into simulators
// built under different configurations and requires the typed mismatch
// error, with the target left untouched.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	src := newSim(t, Config{IntervalCycles: 500, Encoder: encoding.NewBI()})
	if _, err := src.StepBatch(context.Background(), ckptWords(3, 700)); err != nil {
		t.Fatal(err)
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	targets := map[string]Config{
		"different interval": {IntervalCycles: 400, Encoder: encoding.NewBI()},
		"different encoder":  {IntervalCycles: 500, Encoder: encoding.NewCBI()},
		"different width":    {IntervalCycles: 500},
		"different node":     {IntervalCycles: 500, Encoder: encoding.NewBI(), Node: itrs.N45},
		"different length":   {IntervalCycles: 500, Encoder: encoding.NewBI(), Length: 0.002},
		"different depth":    {IntervalCycles: 500, Encoder: encoding.NewBI(), CouplingDepth: 1},
		"no repeaters":       {IntervalCycles: 500, Encoder: encoding.NewBI(), NoRepeaters: true},
	}
	for label, cfg := range targets {
		tgt := newSim(t, cfg)
		err := tgt.Restore(blob)
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: Restore = %v, want ErrCheckpointMismatch", label, err)
		}
		if tgt.Cycles() != 0 || tgt.Err() != nil {
			t.Errorf("%s: failed Restore mutated the target", label)
		}
	}

	// The compatible config restores fine.
	ok := newSim(t, Config{IntervalCycles: 500, Encoder: encoding.NewBI()})
	if err := ok.Restore(blob); err != nil {
		t.Fatalf("compatible Restore: %v", err)
	}
}

// TestRestoreRejectsCorruptCheckpoints requires the typed corrupt error
// for truncation, bit flips, bad magic and unsupported versions — and an
// untouched target in every case.
func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	src := newSim(t, Config{IntervalCycles: 200})
	if _, err := src.StepBatch(context.Background(), ckptWords(5, 450)); err != nil {
		t.Fatal(err)
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":            {},
		"short":            blob[:8],
		"truncated body":   blob[:len(blob)/2],
		"truncated tail":   blob[:len(blob)-1],
		"bad magic":        append([]byte("XXXX"), blob[4:]...),
		"flipped bit":      flipBit(blob, len(blob)/3),
		"flipped checksum": flipBit(blob, len(blob)-2),
		"bad version":      flipBit(blob, 4),
		"trailing bytes":   append(append([]byte{}, blob...), 0xAA),
	}
	for label, bad := range cases {
		tgt := newSim(t, Config{IntervalCycles: 200})
		err := tgt.Restore(bad)
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: Restore = %v, want ErrCheckpointCorrupt", label, err)
		}
		if tgt.Cycles() != 0 {
			t.Errorf("%s: failed Restore mutated the target", label)
		}
	}
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0x40
	return out
}

// TestSnapshotPoisonedFails arms the flush failpoint to poison the
// simulator and requires Snapshot to refuse, then Restore to resurrect it
// from the pre-poison checkpoint.
func TestSnapshotPoisonedFails(t *testing.T) {
	defer faultinject.Reset()
	sim := newSim(t, Config{IntervalCycles: 100})
	ctx := context.Background()
	if _, err := sim.StepBatch(ctx, ckptWords(9, 150)); err != nil {
		t.Fatal(err)
	}
	blob, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Set("core.interval.flush", "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.StepBatch(ctx, ckptWords(10, 200)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("StepBatch under injected flush failure = %v, want ErrPoisoned", err)
	}
	if !errors.Is(sim.Err(), faultinject.ErrInjected) {
		t.Fatalf("sticky error %v does not wrap faultinject.ErrInjected", sim.Err())
	}
	if _, err := sim.Snapshot(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Snapshot on poisoned simulator = %v, want ErrPoisoned", err)
	}
	faultinject.Reset()

	if err := sim.Restore(blob); err != nil {
		t.Fatalf("Restore after poison: %v", err)
	}
	if sim.Err() != nil {
		t.Fatalf("Restore left sticky error %v", sim.Err())
	}
	if sim.Cycles() != 150 {
		t.Fatalf("resurrected cycle count %d, want 150", sim.Cycles())
	}
}

// TestPoisonedFlushDropsPendingCounts fails an interval flush while the
// memo holds pending counts of the failed interval (K = 1 and K = 4):
// the window is discarded with them, so nothing of the failed interval
// reaches the window a restore or reset starts from.
func TestPoisonedFlushDropsPendingCounts(t *testing.T) {
	for _, buses := range []int{1, 4} {
		faultinject.Reset()
		m := newMultiForCkpt(t, buses)
		if err := faultinject.Set("core.interval.flush", "error"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.StepBatch(context.Background(), addressSlab(7, buses, 1000)); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("K %d: StepBatch under injected flush failure = %v, want ErrPoisoned", buses, err)
		}
		faultinject.Reset()
		for k := 0; k < buses; k++ {
			for i, n := range m.acc.BusState(k).Toggles {
				if n != 0 {
					t.Fatalf("K %d bus %d: poisoned flush left %d transitions of wire %d in the window", buses, k, n, i)
				}
			}
		}
	}
}

// TestSnapshotWithPendingCounts snapshots a K = 1 run every 350 words,
// mid-interval, while the memo holds pending counts: the snapshotted run
// and a fresh simulator restored from a mid-run blob must both end
// bit-identical to the run without snapshots.
func TestSnapshotWithPendingCounts(t *testing.T) {
	const rows, every, cut = 6000, 350, 2450
	words := addressSlab(43, 1, rows)
	ctx := context.Background()
	mk := func() *Simulator {
		return newSim(t, Config{IntervalCycles: 1000, CouplingDepth: -1, TrackWireTemps: true, Encoder: encoding.NewBI()})
	}
	plain := mk()
	if _, err := plain.StepBatch(ctx, words); err != nil {
		t.Fatal(err)
	}
	observed := mk()
	var mid []byte
	for r := 0; r < rows; r += every {
		end := min(r+every, rows)
		before := observed.MemoStats()
		if _, err := observed.StepBatch(ctx, words[r:end]); err != nil {
			t.Fatal(err)
		}
		// The chunk before the cut (rows 2100-2450) stays inside one
		// interval, so the transitions it counted through the memo are
		// still pending there when the snapshot is taken.
		if after := observed.MemoStats(); end == cut && after.Hits == before.Hits {
			t.Fatal("no memo hits pending at the cut")
		}
		blob, err := observed.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if end == cut {
			mid = blob
		}
	}
	resumed := mk()
	if err := resumed.Restore(mid); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := resumed.StepBatch(ctx, words[cut:]); err != nil {
		t.Fatal(err)
	}
	lp, lo := make([]energy.LineEnergy, plain.Width()), make([]energy.LineEnergy, plain.Width())
	plain.LineEnergies(lp)
	for _, s := range []*Simulator{plain, observed, resumed} {
		if err := s.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	for label, s := range map[string]*Simulator{"snapshotted": observed, "resumed": resumed} {
		sameSamples(t, label+" vs plain", s.Samples(), plain.Samples())
		if !sameEnergy(s.TotalEnergy(), plain.TotalEnergy()) {
			t.Fatalf("%s: total %+v, plain %+v", label, s.TotalEnergy(), plain.TotalEnergy())
		}
		s.LineEnergies(lo)
		plain.LineEnergies(lp)
		for i := range lp {
			if !sameEnergy(lo[i], lp[i]) {
				t.Fatalf("%s line %d: %+v, plain %+v", label, i, lo[i], lp[i])
			}
		}
	}
}

// TestFlushPanicFailpoint proves the scripted panic failpoint fires where
// armed — the chaos harness relies on it to model mid-interval crashes.
func TestFlushPanicFailpoint(t *testing.T) {
	defer faultinject.Reset()
	if err := faultinject.Set("core.interval.flush", "panic,nth=2"); err != nil {
		t.Fatal(err)
	}
	sim := newSim(t, Config{IntervalCycles: 50})
	ctx := context.Background()
	if _, err := sim.StepBatch(ctx, ckptWords(1, 50)); err != nil {
		t.Fatalf("first interval (trigger not yet due): %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second interval flush did not panic")
		}
	}()
	_, _ = sim.StepBatch(ctx, ckptWords(2, 50))
}

var updateCkpt = flag.Bool("update-ckpt", false, "rewrite the current-layout testdata/ckpt_v*.bin from fresh runs")

// ckptTarget is the checkpoint and stepping surface Simulator and
// MultiSim share.
type ckptTarget interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
	StepBatch(context.Context, []uint32) (int, error)
	Finish() error
}

// busFigures returns a target's per-bus samples and cumulative energies
// (one bus for a Simulator).
func busFigures(tgt ckptTarget) ([][]Sample, []energy.LineEnergy) {
	if s, ok := tgt.(*Simulator); ok {
		return [][]Sample{s.Samples()}, []energy.LineEnergy{s.TotalEnergy()}
	}
	m := tgt.(*MultiSim)
	samples := make([][]Sample, m.Buses())
	totals := make([]energy.LineEnergy, m.Buses())
	for k := range samples {
		samples[k], totals[k] = m.Samples(k), m.TotalEnergy(k)
	}
	return samples, totals
}

// pinnedAdaptive is the adaptive pins' controller: the probe trajectory's
// sample 2 (318.150622 K at 45 nm) is the first at or above the
// 318.1505 K trigger, so the switch closes the third interval.
var pinnedAdaptive = AdaptiveConfig{Base: "BI", Cool: "CoolSpread", CeilingK: 318.4005, GuardK: 0.25, HysteresisK: 0.1}

// pinnedCkpts are the committed blobs, one per NBCP layout. target builds
// a simulator with the blob's configuration; run drives a fresh target to
// the pinned state. A frozen blob was written by an earlier codec (the
// float-window layouts v1, v2 and v3): -update-ckpt never rewrites it,
// and its run and tail serve the resume check instead. Snapshot of a
// frozen blob's target writes the resnap layout. New entries go last, so
// FuzzRestore's seed numbering stays put.
var pinnedCkpts = []struct {
	file    string
	version byte
	target  func(t *testing.T) ckptTarget
	run     func(t *testing.T, tgt ckptTarget)
	frozen  bool
	resnap  byte
	tail    []uint32
}{
	{
		// Static BI, cut mid-interval, samples with wire temperatures.
		file: "ckpt_v4.bin", version: 4,
		target: func(t *testing.T) ckptTarget { return newSim(t, pinnedV1Config()) },
		run:    runPinnedStatic,
	},
	{
		// K = 4 BI, one sample per bus plus a partly filled window.
		file: "ckpt_v2.bin", version: 2, frozen: true, resnap: 6,
		target: func(t *testing.T) ckptTarget { return newMultiForCkpt(t, 4) },
		run:    runPinnedMulti, tail: ckptWords(12, 1700*4),
	},
	{
		// Adaptive, cut mid-interval right after the switch.
		file: "ckpt_v5.bin", version: 5,
		target: func(t *testing.T) ckptTarget { return newAdaptiveSim(t, 1000, pinnedAdaptive) },
		run:    runPinnedAdaptive,
	},
	{
		file: "ckpt_v1.bin", version: 1, frozen: true, resnap: 4,
		target: func(t *testing.T) ckptTarget { return newSim(t, pinnedV1Config()) },
		run:    runPinnedStatic, tail: ckptWords(8, 700),
	},
	{
		file: "ckpt_v3.bin", version: 3, frozen: true, resnap: 5,
		target: func(t *testing.T) ckptTarget { return newAdaptiveSim(t, 1000, pinnedAdaptive) },
		run:    runPinnedAdaptive, tail: hotWords(2500),
	},
	{
		// ckpt_v2.bin's run, in the counts layout.
		file: "ckpt_v6.bin", version: 6,
		target: func(t *testing.T) ckptTarget { return newMultiForCkpt(t, 4) },
		run:    runPinnedMulti,
	},
}

func pinnedV1Config() Config {
	return Config{Node: itrs.N130, CouplingDepth: -1, IntervalCycles: 300, Encoder: encoding.NewBI(), TrackWireTemps: true}
}

func runPinnedStatic(t *testing.T, tgt ckptTarget) {
	if _, err := tgt.StepBatch(context.Background(), ckptWords(7, 1111)); err != nil {
		t.Fatal(err)
	}
}

func runPinnedMulti(t *testing.T, tgt ckptTarget) {
	if _, err := tgt.StepBatch(context.Background(), ckptWords(11, 1300*4)); err != nil {
		t.Fatal(err)
	}
}

func runPinnedAdaptive(t *testing.T, tgt ckptTarget) {
	sim := tgt.(*Simulator)
	if _, err := sim.StepBatch(context.Background(), hotWords(3500)); err != nil {
		t.Fatal(err)
	}
	if len(sim.SwitchEvents()) != 1 || sim.ActiveEncoder() != pinnedAdaptive.Cool {
		t.Fatalf("pinned adaptive run did not switch once: %+v", sim.SwitchEvents())
	}
}

// readPinned returns the committed blob, regenerating a current-layout
// one first under -update-ckpt.
func readPinned(t *testing.T, i int) []byte {
	t.Helper()
	pc := pinnedCkpts[i]
	path := filepath.Join("testdata", pc.file)
	if *updateCkpt && !pc.frozen {
		src := pc.target(t)
		pc.run(t, src)
		blob, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 5 || blob[4] != pc.version {
		t.Fatalf("%s is not an NBCP v%d blob", pc.file, pc.version)
	}
	return blob
}

// TestCheckpointLayoutsPinned restores every committed layout into a
// matching target. A current-layout blob must come back from Snapshot
// byte for byte, so blobs already in stores and replicas keep restoring;
// the check copies bits only, so it holds on any host whatever its
// math.Exp. A frozen float-window blob must resume: see
// checkFrozenResume.
func TestCheckpointLayoutsPinned(t *testing.T) {
	for i, pc := range pinnedCkpts {
		want := readPinned(t, i)
		tgt := pc.target(t)
		if err := tgt.Restore(want); err != nil {
			t.Fatalf("%s: Restore: %v", pc.file, err)
		}
		got, err := tgt.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", pc.file, err)
		}
		if pc.frozen {
			checkFrozenResume(t, i, tgt, got)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: restore then snapshot is not byte-identical (%d vs %d bytes)", pc.file, len(got), len(want))
		}
	}

	// A K = 1 MultiSim runs the scalar pipeline and takes the v4 layout.
	v4 := readPinned(t, 0)
	msim, err := NewMulti(MultiConfig{Config: pinnedV1Config(), Buses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := msim.Restore(v4); err != nil {
		t.Fatalf("K=1 MultiSim Restore of ckpt_v4.bin: %v", err)
	}
	if got, err := msim.Snapshot(); err != nil || !bytes.Equal(got, v4) {
		t.Fatalf("K=1 MultiSim re-snapshot of ckpt_v4.bin differs (err %v)", err)
	}
}

// checkFrozenResume continues a simulator restored from frozen blob i
// (whose re-snapshot is snap) with the blob's tail words. Its float
// window rides in the current layout as the carry, so a second target
// restored from snap must continue bit for bit like the first. Against
// an uninterrupted run of the same words on the count kernel, every bus
// must agree to rounding: the blob's energies were summed by a float
// kernel (the scalar memo for v1 and v3, the multi-bus float window for
// v2).
func checkFrozenResume(t *testing.T, i int, restored ckptTarget, snap []byte) {
	t.Helper()
	pc := pinnedCkpts[i]
	if snap[4] != pc.resnap {
		t.Fatalf("%s: re-snapshot is v%d, want v%d", pc.file, snap[4], pc.resnap)
	}
	second := pc.target(t)
	if err := second.Restore(snap); err != nil {
		t.Fatalf("%s: Restore of its re-snapshot: %v", pc.file, err)
	}
	uninterrupted := pc.target(t)
	pc.run(t, uninterrupted)
	for _, sim := range []ckptTarget{restored, second, uninterrupted} {
		if _, err := sim.StepBatch(context.Background(), pc.tail); err != nil {
			t.Fatal(err)
		}
		if err := sim.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	got, gotTotals := busFigures(restored)
	again, _ := busFigures(second)
	want, wantTotals := busFigures(uninterrupted)
	const tol = 1e-12
	close := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Abs(b) }
	for bus := range want {
		name := fmt.Sprintf("%s bus %d", pc.file, bus)
		sameSamples(t, name+" restored vs re-snapshot", got[bus], again[bus])
		if len(got[bus]) != len(want[bus]) {
			t.Fatalf("%s: %d samples, uninterrupted run has %d", name, len(got[bus]), len(want[bus]))
		}
		for k := range want[bus] {
			x, y := got[bus][k], want[bus][k]
			same := x.EndCycle == y.EndCycle && x.MaxWire == y.MaxWire && x.Encoder == y.Encoder &&
				x.Switched == y.Switched && len(x.WireTemps) == len(y.WireTemps) &&
				close(x.Energy, y.Energy) && close(x.Self, y.Self) && close(x.CoupAdj, y.CoupAdj) &&
				close(x.CoupNonAdj, y.CoupNonAdj) && close(x.AvgTemp, y.AvgTemp) && close(x.MaxTemp, y.MaxTemp)
			for j := 0; same && j < len(x.WireTemps); j++ {
				same = close(x.WireTemps[j], y.WireTemps[j])
			}
			if !same {
				t.Fatalf("%s: resumed sample %d is not within %g of the uninterrupted run:\n  %+v\n  %+v", name, k, tol, x, y)
			}
		}
		if a, b := gotTotals[bus].Total(), wantTotals[bus].Total(); !close(a, b) {
			t.Fatalf("%s: resumed total %g J, uninterrupted %g J", name, a, b)
		}
	}
}

// resealed returns a copy of blob with its trailing CRC recomputed, so a
// mutation reaches the field decoders instead of the checksum.
func resealed(blob []byte) []byte {
	out := append([]byte(nil), blob...)
	if len(out) >= 4 {
		body := out[:len(out)-4]
		binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	}
	return out
}

// ambientOffset finds the thermal ambient field of a pinned blob: the
// first occurrence of the target's ambient bit pattern. Nothing stored
// before it (energies, counters, switch temperatures) equals the ambient,
// because every pinned run has heated its bus.
func ambientOffset(t *testing.T, blob []byte, ambient float64) int {
	t.Helper()
	off := bytes.Index(blob, binary.LittleEndian.AppendUint64(nil, math.Float64bits(ambient)))
	if off < 0 {
		t.Fatalf("ambient %g K not found in the blob", ambient)
	}
	return off
}

// kernelOf returns the kernel behind a Simulator or MultiSim.
func kernelOf(tgt ckptTarget) *kernel {
	if s, ok := tgt.(*Simulator); ok {
		return &s.kernel
	}
	return &tgt.(*MultiSim).kernel
}

// ckptField is a mutation of one field of a pinned blob: it returns the
// mutated copy, or nil when the blob's layout has no such field.
type ckptField func(blob []byte) []byte

// impossibleFields lists, for pinned blob i, mutations that each store a
// value no simulator could write. The offsets come from the layout:
// bus 0's cumulative total and window carry follow the counters (and, at
// K > 1, the grid); the last sample of the last bus ends the payload.
func impossibleFields(t *testing.T, i int, blob []byte) map[string]ckptField {
	t.Helper()
	pc := pinnedCkpts[i]
	restored := pc.target(t)
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	k := kernelOf(restored)
	l := ckptLayouts[blob[4]]
	fp := &ckptCodec{wire.Writer(nil)}
	if err := fp.fingerprint(k.fingerprint()); err != nil {
		t.Fatal(err)
	}
	w := k.width
	bus := len(checkpointMagic) + 2 + 2 + len(fp.Written()) + 8 + 8
	if l.multi {
		bus += 8 + 8*k.buses*w
	}
	carry := bus + 24*(1+w) + 8 + 1 + 8 + 8
	ambient := ambientOffset(t, blob, k.net.Ambient())

	last := k.samples[k.buses-1]
	if len(last) == 0 {
		t.Fatalf("%s: the last bus has no sample", pc.file)
	}
	wireTemps := len(last[len(last)-1].WireTemps)
	tags := 0
	if l.adaptive {
		tags = 2
	}
	wtEnd := len(blob) - 4 - tags // after the last sample's wire temps
	nwt := wtEnd - 8*wireTemps - 4
	maxWire := nwt - 8
	sampleEnergy := maxWire - 6*8

	f64 := func(off int, v float64) ckptField {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
			return b
		}
	}
	i64 := func(off int, v int64) ckptField {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[off:], uint64(v))
			return b
		}
	}
	fields := map[string]ckptField{
		"ambient -1":              f64(ambient, -1),
		"ambient NaN":             f64(ambient, math.NaN()),
		"wire temp NaN":           f64(ambient+8, math.NaN()),
		"cumulative self NaN":     f64(bus, math.NaN()),
		"cumulative adjacent Inf": f64(bus+8, math.Inf(1)),
		"line total NaN":          f64(bus+24, math.NaN()),
		"carry total NaN":         f64(carry, math.NaN()),
		"carry line NaN":          f64(carry+24, math.NaN()),
		"sample energy NaN":       f64(sampleEnergy, math.NaN()),
		"sample self Inf":         f64(sampleEnergy+8, math.Inf(-1)),
		"hottest wire -1":         i64(maxWire, -1),
		"hottest wire W":          i64(maxWire, int64(w)),
		// One wire temp more or fewer than the sample had, with the
		// payload resized to match: neither 0 nor W.
		"wire-temp count": func(b []byte) []byte {
			n := wireTemps - 1
			tail := append([]byte(nil), b[wtEnd:]...)
			if wireTemps == 0 {
				n = 1
				b = binary.LittleEndian.AppendUint64(b[:wtEnd], math.Float64bits(300))
			} else {
				b = b[:wtEnd-8]
			}
			binary.LittleEndian.PutUint32(b[nwt:], uint32(n))
			return append(b, tail...)
		},
	}
	if l.adaptive {
		counts := 0
		if l.counts {
			counts = 8*w + 8*w*(w-1)/2
		}
		just := carry + 24*(1+w) + counts + 2
		fields["just-switched flipped"] = func(b []byte) []byte {
			b[just] ^= 1
			return b
		}
	}
	return fields
}

// TestRestoreRejectsImpossibleThermalState takes each pinned layout,
// stores in one field a value no simulator writes (a non-positive or NaN
// ambient, a non-finite temperature or energy, a hottest wire off the
// bus, a wire-temp count other than 0 or W, a just-switched byte that
// disagrees with the switch log), re-seals the CRC and requires
// ErrCheckpointCorrupt with the target exactly as it was: a re-snapshot
// byte-identical to the one taken before the call.
func TestRestoreRejectsImpossibleThermalState(t *testing.T) {
	for i, pc := range pinnedCkpts {
		blob := readPinned(t, i)
		for name, mutate := range impossibleFields(t, i, blob) {
			bad := resealed(mutate(append([]byte(nil), blob...)))

			tgt := pc.target(t)
			before, err := tgt.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := tgt.Restore(bad); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Errorf("%s, %s: Restore = %v, want ErrCheckpointCorrupt", pc.file, name, err)
			}
			after, err := tgt.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Errorf("%s, %s: the rejected Restore changed the target", pc.file, name)
			}
		}
	}
}

// FuzzRestore feeds mutated checkpoints to a target of each layout. The
// flags byte picks the target (flags>>1) and whether to re-seal the CRC
// (flags&1), so mutations get past the checksum to the field decoders.
// Restore must not panic; every error must be Corrupt or Mismatch and
// leave the target as it was; an accepted blob must reach a fixed point:
// snapshot, restore into a second target, snapshot again, same bytes.
//
// Building a simulator costs ~30x a restore, so each fuzz worker builds
// its two targets per layout once; every input first restores the pinned
// blob, which overwrites all the state a snapshot sees.
func FuzzRestore(f *testing.F) {
	pinned := make([][]byte, len(pinnedCkpts))
	for i, pc := range pinnedCkpts {
		blob, err := os.ReadFile(filepath.Join("testdata", pc.file))
		if err != nil {
			f.Fatal(err)
		}
		pinned[i] = blob
		f.Add(blob, byte(i<<1))
		f.Add(blob, byte(i<<1|1))
	}
	targets := make([][2]ckptTarget, len(pinnedCkpts))
	f.Fuzz(func(t *testing.T, data []byte, flags byte) {
		k := int(flags>>1) % len(pinnedCkpts)
		if flags&1 != 0 {
			data = resealed(data)
		}
		if targets[k][0] == nil {
			targets[k] = [2]ckptTarget{pinnedCkpts[k].target(t), pinnedCkpts[k].target(t)}
		}
		tgt, second := targets[k][0], targets[k][1]
		if err := tgt.Restore(pinned[k]); err != nil {
			t.Fatal(err)
		}
		before, err := tgt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := tgt.Restore(data); err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("Restore error is neither Corrupt nor Mismatch: %v", err)
			}
			after, err := tgt.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatalf("rejected Restore (%v) changed the target", err)
			}
			return
		}
		snap, err := tgt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := second.Restore(snap); err != nil {
			t.Fatalf("restoring an accepted blob's snapshot: %v", err)
		}
		again, err := second.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, snap) {
			t.Fatal("snapshot -> restore -> snapshot is not a fixed point")
		}
	})
}
