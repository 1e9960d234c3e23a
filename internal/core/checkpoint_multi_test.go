package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/itrs"
)

func newMultiForCkpt(t *testing.T, buses int) *MultiSim {
	t.Helper()
	enc, err := encoding.New("BI")
	if err != nil {
		t.Fatalf("encoding.New: %v", err)
	}
	m, err := NewMulti(MultiConfig{
		Config: Config{
			Node:           itrs.N90,
			Encoder:        enc,
			CouplingDepth:  -1,
			IntervalCycles: 1000,
			TrackWireTemps: true,
		},
		Buses: buses,
	})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	return m
}

// TestMultiSnapshotRestoreRoundTrip snapshots a K-bus simulator mid-run
// (mid-interval, stateful encoder, samples retained), restores into a
// fresh simulator, and requires the re-snapshot to reproduce the blob
// and both simulators to continue bit-identically.
func TestMultiSnapshotRestoreRoundTrip(t *testing.T) {
	const buses = 4
	src := newMultiForCkpt(t, buses)
	ctx := context.Background()

	rng := rand.New(rand.NewSource(3))
	mkSlab := func(rows int) []uint32 {
		s := make([]uint32, rows*buses)
		for i := range s {
			s[i] = rng.Uint32()
		}
		return s
	}
	// 2.3 intervals in: retained samples plus a partially filled window.
	if _, err := src.StepBatch(ctx, mkSlab(2300)); err != nil {
		t.Fatalf("StepBatch: %v", err)
	}

	blob, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	dst := newMultiForCkpt(t, buses)
	if err := dst.Restore(blob); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	// The restored simulator must also re-snapshot to the same bytes.
	blob2, err := dst.Snapshot()
	if err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	if len(blob) != len(blob2) {
		t.Fatalf("re-snapshot length %d != %d", len(blob2), len(blob))
	}
	for i := range blob {
		if blob[i] != blob2[i] {
			t.Fatalf("re-snapshot differs at byte %d", i)
		}
	}

	tail := mkSlab(1700)
	if _, err := src.StepBatch(ctx, tail); err != nil {
		t.Fatalf("src tail: %v", err)
	}
	if _, err := dst.StepBatch(ctx, tail); err != nil {
		t.Fatalf("dst tail: %v", err)
	}
	if err := src.Finish(); err != nil {
		t.Fatalf("src Finish: %v", err)
	}
	if err := dst.Finish(); err != nil {
		t.Fatalf("dst Finish: %v", err)
	}

	sameMultiRun(t, "restored vs source", dst, src)
}

// TestMultiSnapshotK1IsV1 checks the K == 1 pass-through: a K=1 MultiSim
// snapshot restores into a plain Simulator and vice versa.
func TestMultiSnapshotK1IsV1(t *testing.T) {
	enc1, _ := encoding.New("CBI")
	enc2, _ := encoding.New("CBI")
	cfg := Config{Node: itrs.N130, Encoder: enc1, CouplingDepth: -1, IntervalCycles: 500}
	msim, err := NewMulti(MultiConfig{Config: cfg, Buses: 1})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	cfg.Encoder = enc2
	sim, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	words := make([]uint32, 750)
	rng := rand.New(rand.NewSource(5))
	for i := range words {
		words[i] = rng.Uint32()
	}
	if _, err := msim.StepBatch(context.Background(), words); err != nil {
		t.Fatalf("StepBatch: %v", err)
	}
	blob, err := msim.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := sim.Restore(blob); err != nil {
		t.Fatalf("scalar Restore of K=1 multi snapshot: %v", err)
	}
	if sim.Cycles() != msim.Cycles() {
		t.Fatalf("cycles: %d vs %d", sim.Cycles(), msim.Cycles())
	}
}

// TestMultiRestoreRejections covers corrupt and mismatched blobs.
func TestMultiRestoreRejections(t *testing.T) {
	m := newMultiForCkpt(t, 3)
	if _, err := m.StepBatch(context.Background(), make([]uint32, 300)); err != nil {
		t.Fatalf("StepBatch: %v", err)
	}
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	if err := m.Restore(blob[:10]); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("short blob: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xff
	if err := m.Restore(bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("bit rot: %v", err)
	}
	other := newMultiForCkpt(t, 2)
	if err := other.Restore(blob); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("bus-count mismatch: %v", err)
	}
	// Version gate: a K>1 target reads v6 and v2 only; every scalar
	// layout is corrupt there, before any fingerprint check.
	for i, pc := range pinnedCkpts {
		if ckptLayouts[pc.version].multi {
			continue
		}
		if err := m.Restore(readPinned(t, i)); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("v%d blob into multi target: %v", pc.version, err)
		}
	}
	v2 := readPinned(t, 1)
	if err := newMultiForCkpt(t, 4).Restore(v2); err != nil {
		t.Fatalf("v2 blob into a K = 4 target: %v", err)
	}
}

// addressSlab returns rows of address-like traffic for each of buses
// buses (strides, holds and far jumps, phase-shifted per bus), packed
// cycle-major: the repeated transitions the memo aggregates.
func addressSlab(seed int64, buses, rows int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]uint32, buses)
	for k := range cols {
		cols[k] = make([]uint32, rows)
		w := uint32(0x4000_1000) + uint32(k)<<12
		for r := range cols[k] {
			switch rng.Intn(8) {
			case 0:
				w = rng.Uint32()
			case 1: // hold
			default:
				w += 4
			}
			cols[k][r] = w
		}
	}
	return interleave(cols)
}

// sameMultiRun requires two K-bus simulators to hold bit-identical
// figures: every sample (temperatures included), every cumulative total
// and per-line energy, the wire temperatures and the cycle count.
func sameMultiRun(t *testing.T, label string, a, b *MultiSim) {
	t.Helper()
	if a.Cycles() != b.Cycles() {
		t.Fatalf("%s: cycles %d vs %d", label, a.Cycles(), b.Cycles())
	}
	for k := 0; k < a.Buses(); k++ {
		name := fmt.Sprintf("%s bus %d", label, k)
		sameSamples(t, name, a.Samples(k), b.Samples(k))
		if !sameEnergy(a.TotalEnergy(k), b.TotalEnergy(k)) {
			t.Fatalf("%s: total energy %+v vs %+v", name, a.TotalEnergy(k), b.TotalEnergy(k))
		}
		la, lb := busLines(a, k), busLines(b, k)
		for i := range la {
			if !sameEnergy(la[i], lb[i]) {
				t.Fatalf("%s line %d: energy %+v vs %+v", name, i, la[i], lb[i])
			}
		}
		ta, tb := a.Grid().BusTemps(k, nil), b.Grid().BusTemps(k, nil)
		for i := range ta {
			if math.Float64bits(ta[i]) != math.Float64bits(tb[i]) {
				t.Fatalf("%s wire %d: temp %.17g vs %.17g", name, i, ta[i], tb[i])
			}
		}
	}
}

// sameEnergy compares two energies component by component by bit pattern.
func sameEnergy(a, b energy.LineEnergy) bool {
	return math.Float64bits(a.Self) == math.Float64bits(b.Self) &&
		math.Float64bits(a.CoupAdj) == math.Float64bits(b.CoupAdj) &&
		math.Float64bits(a.CoupNonAdj) == math.Float64bits(b.CoupNonAdj)
}

// TestMultiSnapshotLeavesRunUnchanged is the observer-effect check: a
// K > 1 run that snapshots every 350 rows (mid-interval, as a server's
// auto-checkpoint does) must end bit-identical to the same run without
// snapshots, and a fresh simulator restored from a mid-run snapshot must
// continue bit-identically to the uninterrupted run.
func TestMultiSnapshotLeavesRunUnchanged(t *testing.T) {
	const buses, rows, every, cut = 4, 6000, 350, 2450
	slab := addressSlab(41, buses, rows)
	ctx := context.Background()

	plain := newMultiForCkpt(t, buses)
	if _, err := plain.StepBatch(ctx, slab); err != nil {
		t.Fatal(err)
	}
	observed := newMultiForCkpt(t, buses)
	var mid []byte
	for r := 0; r < rows; r += every {
		end := min(r+every, rows)
		if _, err := observed.StepBatch(ctx, slab[r*buses:end*buses]); err != nil {
			t.Fatal(err)
		}
		blob, err := observed.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if end == cut {
			mid = blob
		}
	}
	resumed := newMultiForCkpt(t, buses)
	if err := resumed.Restore(mid); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := resumed.StepBatch(ctx, slab[cut*buses:]); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*MultiSim{plain, observed, resumed} {
		if err := m.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	sameMultiRun(t, "snapshotted vs plain", observed, plain)
	sameMultiRun(t, "resumed vs plain", resumed, plain)
}
