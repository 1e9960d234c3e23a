package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/thermal"
)

// adaptiveScenario builds an adaptive config whose trigger lands on the
// 3rd interval of the hotWords trace, so runs of >=4 intervals contain a
// switch.
func adaptiveScenario(t *testing.T, interval uint64) AdaptiveConfig {
	t.Helper()
	probe := probeTrajectory(t, hotWords(8*int(interval)), interval, thermal.NodeOptions{})
	return AdaptiveConfig{
		Base: "BI", Cool: "CoolSpread",
		CeilingK: probe[2].MaxTemp + 0.25, GuardK: 0.25, HysteresisK: 0.1,
	}
}

// TestAdaptiveSnapshotRestoreMidSwitch is the v3 round-trip pin: snapshot
// at several cut points — before, exactly at, and after the switch, on
// and off interval boundaries — restore into a fresh simulator, replay
// the tail, and require bit-identical samples, events, occupancy and
// snapshots versus the uninterrupted run.
func TestAdaptiveSnapshotRestoreMidSwitch(t *testing.T) {
	const interval = 1000
	words := hotWords(8 * interval)
	cfg := adaptiveScenario(t, interval)
	ctx := context.Background()

	full := newAdaptiveSim(t, interval, cfg)
	if _, err := full.StepBatch(ctx, words); err != nil {
		t.Fatal(err)
	}
	if err := full.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(full.SwitchEvents()) == 0 {
		t.Fatal("scenario has no switch; cuts would not cross one")
	}
	finalSnap, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Cut points in cycles: mid-interval before the switch, the switch
	// boundary itself, mid-interval after, and a later boundary.
	for _, cut := range []int{1500, 3000, 3500, 5000} {
		orig := newAdaptiveSim(t, interval, cfg)
		if _, err := orig.StepBatch(ctx, words[:cut]); err != nil {
			t.Fatal(err)
		}
		snap, err := orig.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}

		resumed := newAdaptiveSim(t, interval, cfg)
		if err := resumed.Restore(snap); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if resumed.Cycles() != uint64(cut) {
			t.Fatalf("cut %d: restored cycle count %d", cut, resumed.Cycles())
		}
		if resumed.ActiveEncoder() != orig.ActiveEncoder() {
			t.Fatalf("cut %d: active encoder %q vs %q", cut, resumed.ActiveEncoder(), orig.ActiveEncoder())
		}
		// An immediate re-snapshot must reproduce the blob byte for byte.
		resnap, err := resumed.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(resnap) != string(snap) {
			t.Fatalf("cut %d: restore+snapshot is not byte-identical", cut)
		}

		if _, err := resumed.StepBatch(ctx, words[cut:]); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Finish(); err != nil {
			t.Fatal(err)
		}

		gotEv, wantEv := resumed.SwitchEvents(), full.SwitchEvents()
		if len(gotEv) != len(wantEv) {
			t.Fatalf("cut %d: %d events vs %d", cut, len(gotEv), len(wantEv))
		}
		for i := range gotEv {
			if gotEv[i].Cycle != wantEv[i].Cycle || gotEv[i].From != wantEv[i].From ||
				gotEv[i].To != wantEv[i].To ||
				math.Float64bits(gotEv[i].TempK) != math.Float64bits(wantEv[i].TempK) {
				t.Errorf("cut %d event %d: %+v vs %+v", cut, i, gotEv[i], wantEv[i])
			}
		}
		gotS, wantS := resumed.Samples(), full.Samples()
		if len(gotS) != len(wantS) {
			t.Fatalf("cut %d: %d samples vs %d", cut, len(gotS), len(wantS))
		}
		for i := range gotS {
			if math.Float64bits(gotS[i].Energy) != math.Float64bits(wantS[i].Energy) ||
				math.Float64bits(gotS[i].MaxTemp) != math.Float64bits(wantS[i].MaxTemp) ||
				math.Float64bits(gotS[i].AvgTemp) != math.Float64bits(wantS[i].AvgTemp) ||
				gotS[i].Encoder != wantS[i].Encoder || gotS[i].Switched != wantS[i].Switched {
				t.Errorf("cut %d sample %d diverged", cut, i)
			}
		}
		gotO, wantO := resumed.EncoderOccupancy(), full.EncoderOccupancy()
		for i := range gotO {
			if gotO[i] != wantO[i] {
				t.Errorf("cut %d occupancy %d: %+v vs %+v", cut, i, gotO[i], wantO[i])
			}
		}
		// The strongest pin: the resumed run's final snapshot equals the
		// uninterrupted run's final snapshot byte for byte.
		resumedFinal, err := resumed.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(resumedFinal) != string(finalSnap) {
			t.Errorf("cut %d: final snapshots differ", cut)
		}
	}
}

// TestAdaptiveCheckpointVersionGates pins the cross-version rejections:
// v1 blobs cannot restore into adaptive targets, v3 blobs cannot restore
// into static targets, and both are ErrCheckpointMismatch (config-shape
// errors, not corruption).
func TestAdaptiveCheckpointVersionGates(t *testing.T) {
	const interval = 1000
	cfg := adaptiveScenario(t, interval)

	adaptiveSim := newAdaptiveSim(t, interval, cfg)
	v3, err := adaptiveSim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v3[4] != 5 {
		t.Fatalf("adaptive snapshot version byte = %d, want 5", v3[4])
	}

	enc, _ := encoding.New("BI")
	staticSim, err := New(Config{Node: itrs.N45, Encoder: enc, IntervalCycles: interval})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := staticSim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v1[4] != 4 {
		t.Fatalf("static snapshot version byte = %d, want 4", v1[4])
	}

	if err := staticSim.Restore(v3); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("v3 into static: %v, want ErrCheckpointMismatch", err)
	}
	if err := adaptiveSim.Restore(v1); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("v1 into adaptive: %v, want ErrCheckpointMismatch", err)
	}
}

// TestAdaptiveRestoreRejectsMismatchedController pins the fingerprint:
// any drift in the adaptive tuning refuses to restore.
func TestAdaptiveRestoreRejectsMismatchedController(t *testing.T) {
	const interval = 1000
	cfg := adaptiveScenario(t, interval)
	sim := newAdaptiveSim(t, interval, cfg)
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	variants := []AdaptiveConfig{
		{Base: "CBI", Cool: cfg.Cool, CeilingK: cfg.CeilingK, GuardK: cfg.GuardK, HysteresisK: cfg.HysteresisK},
		{Base: cfg.Base, Cool: "CoolCap", CeilingK: cfg.CeilingK, GuardK: cfg.GuardK, HysteresisK: cfg.HysteresisK},
		{Base: cfg.Base, Cool: cfg.Cool, CeilingK: cfg.CeilingK + 1, GuardK: cfg.GuardK, HysteresisK: cfg.HysteresisK},
		{Base: cfg.Base, Cool: cfg.Cool, CeilingK: cfg.CeilingK, GuardK: cfg.GuardK + 0.01, HysteresisK: cfg.HysteresisK},
		{Base: cfg.Base, Cool: cfg.Cool, CeilingK: cfg.CeilingK, GuardK: cfg.GuardK, HysteresisK: cfg.HysteresisK + 0.01},
	}
	for i, v := range variants {
		target := newAdaptiveSim(t, interval, v)
		if err := target.Restore(snap); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("variant %d: %v, want ErrCheckpointMismatch", i, err)
		}
	}
}

// TestAdaptiveCheckpointCorruption pins v3's structural validation: bit
// flips and truncation are rejected and leave the target untouched.
func TestAdaptiveCheckpointCorruption(t *testing.T) {
	const interval = 1000
	words := hotWords(4 * interval)
	cfg := adaptiveScenario(t, interval)
	sim := newAdaptiveSim(t, interval, cfg)
	if _, err := sim.StepBatch(context.Background(), words); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	target := newAdaptiveSim(t, interval, cfg)
	pristine, err := target.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x40
	if err := target.Restore(flipped); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("bit flip: %v, want ErrCheckpointCorrupt", err)
	}
	if err := target.Restore(snap[:len(snap)-9]); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("truncation: %v, want ErrCheckpointCorrupt", err)
	}
	after, err := target.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(pristine) {
		t.Error("failed restores mutated the target")
	}
}
