package client_test

import (
	"context"
	"testing"

	"nanobus/client"
	"nanobus/internal/server"
)

// hotTrace builds a trace whose words complement each other cycle to
// cycle, so every wire toggles and the bus heats as fast as the model
// allows — the shortest path to an encoder switch in a test.
func hotTrace(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = 0xAAAAAAAA
		} else {
			out[i] = 0x55555555
		}
	}
	return out
}

// probeTrigger runs trace through a static-BI session and returns the
// MaxTempK of its third sample. An adaptive session tuned so its trigger
// equals that reading switches deterministically at the third interval
// boundary (temperatures rise monotonically under sustained traffic).
func probeTrigger(t *testing.T, hc *client.Client, trace []uint32, interval uint64) float64 {
	t.Helper()
	ctx := context.Background()
	sess, err := hc.CreateSession(ctx, client.SessionConfig{
		Node: "45nm", Encoding: "BI", IntervalCycles: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.StepBinary(ctx, trace); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 4 {
		t.Fatalf("probe produced %d samples, need at least 4", len(res.Samples))
	}
	return res.Samples[2].MaxTempK
}

// adaptiveCfg is the shared session config of the cross-transport tests:
// tuned so the trigger lands exactly on the probe's third sample.
func adaptiveCfg(trigger float64, interval uint64) client.SessionConfig {
	return client.SessionConfig{
		Node:           "45nm",
		IntervalCycles: interval,
		Adaptive: &client.AdaptiveSpec{
			Base: "BI", Cool: "CoolSpread",
			CeilingK: trigger + 0.25, GuardK: 0.25, HysteresisK: 0.1,
		},
	}
}

// TestAdaptiveCheckpointResumeNBWP pins the NBCP v3 round trip over the
// wire: checkpoint an adaptive session mid-run (after its switch),
// delete it, resurrect it from the downloaded envelope on a fresh
// connection, replay the tail, and require figures, switch events and
// per-sample encoder tags bit-identical to an uninterrupted run.
func TestAdaptiveCheckpointResumeNBWP(t *testing.T) {
	_, hc, addr := newNBWPService(t, server.Config{})
	ctx := context.Background()
	const interval = 1000
	trace := hotTrace(8 * interval)
	cfg := adaptiveCfg(probeTrigger(t, hc, trace, interval), interval)
	const cut = 3500 // mid-interval, past the switch at cycle 3000

	nc := dialNBWP(t, addr)
	full, err := nc.Open(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.StepBinary(ctx, trace); err != nil {
		t.Fatal(err)
	}
	want, err := full.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if want.Adaptive == nil || len(want.Adaptive.Switches) == 0 {
		t.Fatal("reference run has no switch; the resume would not cross one")
	}

	crashy, err := nc.Open(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := crashy.Info.ID
	if _, err := crashy.StepBinary(ctx, trace[:cut]); err != nil {
		t.Fatal(err)
	}
	env, err := crashy.CheckpointDownload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashy.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// The session is gone; the envelope alone must rebuild it —
	// controller tuning, mode, both encoder states and all.
	nc2 := dialNBWP(t, addr)
	resumed, resp, err := nc2.RestoreSession(ctx, id, env)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Resurrected {
		t.Fatal("expected a resurrection (the session was deleted)")
	}
	if resp.Cycles != cut {
		t.Fatalf("restored cycles = %d, want %d", resp.Cycles, cut)
	}
	if _, err := resumed.StepBinary(ctx, trace[cut:]); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}

	if got.Cycles != want.Cycles || !bitsEq(got.Total.TotalJ, want.Total.TotalJ) ||
		!bitsEq(got.MaxTempK, want.MaxTempK) {
		t.Fatalf("resumed figures differ:\ngot  %d %v %v\nwant %d %v %v",
			got.Cycles, got.Total.TotalJ, got.MaxTempK, want.Cycles, want.Total.TotalJ, want.MaxTempK)
	}
	if got.Adaptive == nil || len(got.Adaptive.Switches) != len(want.Adaptive.Switches) {
		t.Fatalf("resumed switches %+v, want %+v", got.Adaptive, want.Adaptive)
	}
	for i, wsw := range want.Adaptive.Switches {
		gsw := got.Adaptive.Switches[i]
		if gsw.Cycle != wsw.Cycle || gsw.From != wsw.From || gsw.To != wsw.To ||
			!bitsEq(gsw.TempK, wsw.TempK) {
			t.Fatalf("resumed switch %d: %+v, want %+v", i, gsw, wsw)
		}
	}
	for i, wo := range want.Adaptive.Occupancy {
		if go_ := got.Adaptive.Occupancy[i]; go_ != wo {
			t.Fatalf("resumed occupancy %d: %+v, want %+v", i, go_, wo)
		}
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("resumed samples = %d, want %d", len(got.Samples), len(want.Samples))
	}
	for i, wsm := range want.Samples {
		gsm := got.Samples[i]
		if gsm.Encoder != wsm.Encoder || gsm.Switched != wsm.Switched ||
			!bitsEq(gsm.EnergyJ, wsm.EnergyJ) || !bitsEq(gsm.MaxTempK, wsm.MaxTempK) {
			t.Fatalf("resumed sample %d: %+v, want %+v", i, gsm, wsm)
		}
	}
}
