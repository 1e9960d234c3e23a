package server_test

import (
	"context"
	"strings"
	"testing"

	"nanobus/client"
	"nanobus/internal/e2e"
	"nanobus/internal/server"
)

// recycledMatchesFresh opens a session of cfg, drives it, reads its
// Result and closes it; then opens the same configuration again. The
// second session must come from the pool and, driven the same way,
// return a Result Float64bits-identical to the fresh one's.
func recycledMatchesFresh(t *testing.T, c *client.Client, cfg client.SessionConfig,
	drive func(*client.HTTPSession) error) *client.Result {
	t.Helper()
	ctx := context.Background()
	var results [2]*client.Result
	for round := range results {
		sess, err := c.CreateSession(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Info.Recycled != (round == 1) {
			t.Fatalf("round %d: recycled = %v", round, sess.Info.Recycled)
		}
		if err := drive(sess); err != nil {
			t.Fatal(err)
		}
		if results[round], err = sess.Result(ctx, true); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2e.SameResult(results[0], results[1]); err != nil {
		t.Fatalf("recycled session differs from the fresh one: %v", err)
	}
	return results[0]
}

// TestPoolRecyclesMultiBusSession closes a K = 4 session and reopens its
// configuration: the pooled simulator, reset, must replay bit-identically.
func TestPoolRecyclesMultiBusSession(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	const buses = 4
	cols := make([][]uint32, buses)
	for k := range cols {
		cols[k] = testWords(uint32(71+k), 1500)
	}
	slab, err := client.PackInterleaved(nil, cols...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := client.SessionConfig{Node: "90nm", Encoding: "BI", Buses: buses, IntervalCycles: 400, TrackWireTemps: true}
	res := recycledMatchesFresh(t, c, cfg, func(s *client.HTTPSession) error {
		ctx := context.Background()
		if _, err := s.StepBinary(ctx, slab); err != nil {
			return err
		}
		_, err := s.StepIdle(ctx, 150)
		return err
	})
	if res.Buses != buses || len(res.PerBus[3].Samples) == 0 {
		t.Fatalf("result has %d buses, bus 3 %d samples", res.Buses, len(res.PerBus[3].Samples))
	}
}

// TestPoolRecyclesAdaptiveSession closes an adaptive session whose
// controller switched and reopens its configuration: the pooled
// simulator's controller must start over, so the recycled run switches
// at the same cycles and reports the same figures.
func TestPoolRecyclesAdaptiveSession(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	const interval = 500
	hot := make([]uint32, 8*interval)
	for i := range hot {
		hot[i] = 0xAAAAAAAA ^ uint32(i&1)*0xFFFFFFFF
	}
	probe, err := c.CreateSession(ctx, client.SessionConfig{Node: "45nm", Encoding: "BI", IntervalCycles: interval})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.StepBinary(ctx, hot); err != nil {
		t.Fatal(err)
	}
	pr, err := probe.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := client.SessionConfig{Node: "45nm", IntervalCycles: interval, Adaptive: &client.AdaptiveSpec{
		Base: "BI", Cool: "CoolSpread", CeilingK: pr.Samples[2].MaxTempK + 0.25, GuardK: 0.25, HysteresisK: 0.1,
	}}
	res := recycledMatchesFresh(t, c, cfg, func(s *client.HTTPSession) error {
		_, err := s.StepBinary(ctx, hot)
		return err
	})
	if res.Adaptive == nil || len(res.Adaptive.Switches) == 0 {
		t.Fatalf("adaptive run never switched: %+v", res.Adaptive)
	}
}

// TestMetricsPoolIdleSimulators reads nanobusd_pool_idle_simulators
// while a session is open (0), after it closes (its simulator is
// shelved: 1) and after the next OPEN of its configuration takes it
// back (0).
func TestMetricsPoolIdleSimulators(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	idle := func(want string) {
		t.Helper()
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if line := "\nnanobusd_pool_idle_simulators " + want + "\n"; !strings.Contains(text, line) {
			t.Fatalf("metrics lack %q", strings.TrimSpace(line))
		}
	}
	cfg := client.SessionConfig{Node: "130nm", Buses: 2, IntervalCycles: 256}
	sess, err := c.CreateSession(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idle("0")
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	idle("1")
	again, err := c.CreateSession(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Info.Recycled {
		t.Fatal("reopened configuration not served from the pool")
	}
	idle("0")
}
