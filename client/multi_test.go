package client_test

import (
	"context"
	"errors"
	"testing"

	"nanobus/client"
	"nanobus/internal/blob"
	"nanobus/internal/server"
)

// multiCfg is the shared 4-bus session configuration of these tests.
func multiCfg() client.SessionConfig {
	return client.SessionConfig{
		Node: "130nm", Buses: 4, IntervalCycles: 512, TrackWireTemps: true,
	}
}

// multiSlab interleaves four deterministic per-bus streams cycle-major.
func multiSlab(t *testing.T, rows int) []uint32 {
	t.Helper()
	cols := make([][]uint32, 4)
	for k := range cols {
		cols[k] = words(uint32(11+k), rows)
	}
	slab, err := client.PackInterleaved(nil, cols...)
	if err != nil {
		t.Fatal(err)
	}
	return slab
}

// TestPackInterleaved pins the transpose layout and the ragged-column
// error.
func TestPackInterleaved(t *testing.T) {
	got, err := client.PackInterleaved(nil, []uint32{1, 2}, []uint32{10, 20}, []uint32{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 10, 100, 2, 20, 200}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d = %d, want %d", i, got[i], want[i])
		}
	}
	if _, err := client.PackInterleaved(nil, []uint32{1}, []uint32{1, 2}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

// TestMultiBusHTTPvsNBWP drives the same interleaved trace through a
// 4-bus session on each transport and requires bit-identical figures,
// per-bus blocks included. Streamed samples must carry bus tags on both
// wires and match the retained per-bus samples.
func TestMultiBusHTTPvsNBWP(t *testing.T) {
	_, hc, addr := newNBWPService(t, server.Config{})
	ctx := context.Background()
	slab := multiSlab(t, 1500)

	hs, err := hc.CreateSession(ctx, multiCfg())
	if err != nil {
		t.Fatal(err)
	}
	if hs.Info.Buses != 4 {
		t.Fatalf("session info buses = %d, want 4", hs.Info.Buses)
	}
	var httpStreamed []client.Sample
	body, err := client.BodyFromLines([]client.StepLine{{Words: slab}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.StepStream(ctx, body, func(s client.Sample) { httpStreamed = append(httpStreamed, s) }); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.StepIdle(ctx, 100); err != nil {
		t.Fatal(err)
	}
	httpRes, err := hs.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}

	nc := dialNBWP(t, addr)
	var nbwpStreamed []client.Sample
	ns, err := nc.Open(ctx, multiCfg(), func(s client.Sample) { nbwpStreamed = append(nbwpStreamed, s) })
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ns.StepBinary(ctx, slab)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Words != uint64(len(slab)) {
		t.Fatalf("step words = %d, want %d", sum.Words, len(slab))
	}
	if sum.Cycles != 1500 {
		t.Fatalf("step cycles = %d, want 1500 (words/buses)", sum.Cycles)
	}
	if _, err := ns.StepIdle(ctx, 100); err != nil {
		t.Fatal(err)
	}
	nbwpRes, err := ns.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}

	if httpRes.Buses != 4 || nbwpRes.Buses != 4 {
		t.Fatalf("result buses = %d/%d, want 4", httpRes.Buses, nbwpRes.Buses)
	}
	if httpRes.Cycles != 1600 || nbwpRes.Cycles != httpRes.Cycles {
		t.Fatalf("cycles = %d/%d, want 1600", httpRes.Cycles, nbwpRes.Cycles)
	}
	if !bitsEq(nbwpRes.Total.TotalJ, httpRes.Total.TotalJ) ||
		!bitsEq(nbwpRes.MaxTempK, httpRes.MaxTempK) ||
		nbwpRes.MaxBus != httpRes.MaxBus || nbwpRes.MaxWire != httpRes.MaxWire {
		t.Fatalf("figures differ across transports:\nnbwp %+v\nhttp %+v", nbwpRes.Total, httpRes.Total)
	}
	if len(httpRes.PerBus) != 4 || len(nbwpRes.PerBus) != 4 {
		t.Fatalf("per_bus lengths = %d/%d, want 4", len(httpRes.PerBus), len(nbwpRes.PerBus))
	}
	var sumJ float64
	for k := range httpRes.PerBus {
		hb, nb := httpRes.PerBus[k], nbwpRes.PerBus[k]
		if hb.Bus != k || nb.Bus != k {
			t.Fatalf("per_bus[%d] tagged %d/%d", k, hb.Bus, nb.Bus)
		}
		if !bitsEq(hb.Total.TotalJ, nb.Total.TotalJ) || !bitsEq(hb.MaxTempK, nb.MaxTempK) {
			t.Fatalf("bus %d figures differ across transports", k)
		}
		sumJ += hb.Total.TotalJ
		if len(hb.TempsK) != httpRes.Width {
			t.Fatalf("bus %d temps len = %d, want width %d", k, len(hb.TempsK), httpRes.Width)
		}
	}
	if relDiff(sumJ, httpRes.Total.TotalJ) > 1e-12 {
		t.Fatalf("per-bus energies sum to %g, total is %g", sumJ, httpRes.Total.TotalJ)
	}

	// Streamed samples: every interval emits one sample per bus, tagged.
	for name, streamed := range map[string][]client.Sample{"http": httpStreamed, "nbwp": nbwpStreamed} {
		if len(streamed) == 0 || len(streamed)%4 != 0 {
			t.Fatalf("%s streamed %d samples, want a positive multiple of 4", name, len(streamed))
		}
		for i, s := range streamed {
			if s.Bus != i%4 {
				t.Fatalf("%s sample %d tagged bus %d, want %d", name, i, s.Bus, i%4)
			}
		}
	}
	// HTTP streams only the intervals its streamed request closes; NBWP
	// streams on every frame of the slot. Both must agree on the shared
	// prefix, and each stream must be a prefix of the retained per-bus
	// samples.
	for i := range httpStreamed {
		if !bitsEq(httpStreamed[i].EnergyJ, nbwpStreamed[i].EnergyJ) ||
			httpStreamed[i].EndCycle != nbwpStreamed[i].EndCycle {
			t.Fatalf("streamed sample %d differs across transports", i)
		}
	}
	if len(nbwpStreamed) < len(httpStreamed) {
		t.Fatalf("nbwp streamed %d samples, http %d", len(nbwpStreamed), len(httpStreamed))
	}
	for k, pb := range httpRes.PerBus {
		got := 0
		for _, s := range nbwpStreamed {
			if s.Bus != k {
				continue
			}
			ps := pb.Samples[got]
			if ps.EndCycle != s.EndCycle || !bitsEq(ps.EnergyJ, s.EnergyJ) {
				t.Fatalf("bus %d retained sample %d differs from streamed", k, got)
			}
			got++
		}
		if got == 0 || got > len(pb.Samples) {
			t.Fatalf("bus %d streamed %d samples, retained %d", k, got, len(pb.Samples))
		}
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return d
	}
	return d / m
}

// TestMultiBusMisalignedBatch pins the row-alignment 400 on both
// transports: a batch that is not a whole number of K-word rows must be
// rejected without stepping.
func TestMultiBusMisalignedBatch(t *testing.T) {
	_, hc, addr := newNBWPService(t, server.Config{})
	ctx := context.Background()

	hs, err := hc.CreateSession(ctx, multiCfg())
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := hs.StepBinary(ctx, words(3, 10)); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("HTTP misaligned batch: got %v, want a 400 APIError", err)
	}
	if sum, err := hs.StepBinary(ctx, words(3, 12)); err != nil || sum.Words != 12 {
		t.Fatalf("aligned batch after rejection: %v (words %d)", err, sum.Words)
	}

	nc := dialNBWP(t, addr)
	ns, err := nc.Open(ctx, multiCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.StepBinary(ctx, words(3, 10)); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("NBWP misaligned batch: got %v, want a 400 APIError", err)
	}
	if sum, err := ns.StepBinary(ctx, words(3, 12)); err != nil || sum.Words != 12 {
		t.Fatalf("aligned NBWP batch after rejection: %v", err)
	}
}

// TestMultiBusCheckpointRestore round-trips a 4-bus session through
// checkpoint/restore on each transport, and resurrects it from a
// downloaded envelope: the replayed tail must land on bit-identical
// figures every time.
func TestMultiBusCheckpointRestore(t *testing.T) {
	_, hc, addr := newNBWPService(t, server.Config{Store: blob.NewMemStore()})
	ctx := context.Background()
	nc := dialNBWP(t, addr)

	head, tail := multiSlab(t, 1000), multiSlab(t, 700)
	for name, tr := range map[string]client.Transport{"http": hc, "nbwp": nc} {
		t.Run(name, func(t *testing.T) {
			sess, err := tr.OpenSession(ctx, multiCfg())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.StepBinary(ctx, head); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			env, err := sess.CheckpointDownload(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.StepBinary(ctx, tail); err != nil {
				t.Fatal(err)
			}
			ref, err := sess.Result(ctx, false)
			if err != nil {
				t.Fatal(err)
			}

			// Rewind to the stored checkpoint and replay the tail.
			resp, err := sess.Restore(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Cycles != 1000 {
				t.Fatalf("restored to cycle %d, want 1000", resp.Cycles)
			}
			if _, err := sess.StepBinary(ctx, tail); err != nil {
				t.Fatal(err)
			}
			replay, err := sess.Result(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEq(replay.Total.TotalJ, ref.Total.TotalJ) || !bitsEq(replay.MaxTempK, ref.MaxTempK) ||
				replay.Cycles != ref.Cycles {
				t.Fatalf("replay after restore differs:\nref    %+v\nreplay %+v", ref.Total, replay.Total)
			}
			for k := range ref.PerBus {
				if !bitsEq(replay.PerBus[k].Total.TotalJ, ref.PerBus[k].Total.TotalJ) {
					t.Fatalf("bus %d energy differs after restore replay", k)
				}
			}

			// Resurrect from the downloaded envelope and replay again.
			res2, resp2, err := tr.Resurrect(ctx, sess.ID(), env)
			if err != nil {
				t.Fatal(err)
			}
			if resp2.Cycles != 1000 {
				t.Fatalf("resurrected to cycle %d, want 1000", resp2.Cycles)
			}
			if _, err := res2.StepBinary(ctx, tail); err != nil {
				t.Fatal(err)
			}
			again, err := res2.Result(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEq(again.Total.TotalJ, ref.Total.TotalJ) {
				t.Fatalf("resurrected replay differs: %g vs %g", again.Total.TotalJ, ref.Total.TotalJ)
			}
			if err := res2.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBusSamples pins the per-bus split of a bus-tagged sample stream.
func TestBusSamples(t *testing.T) {
	in := []client.Sample{
		{Bus: 0, EndCycle: 512}, {Bus: 1, EndCycle: 512},
		{Bus: 0, EndCycle: 1024}, {Bus: 1, EndCycle: 1024},
		{Bus: 0, EndCycle: 1536},
	}
	for bus, want := range [][]uint64{{512, 1024, 1536}, {512, 1024}, nil} {
		got := client.BusSamples(in, bus)
		if len(got) != len(want) {
			t.Fatalf("bus %d: %d samples, want %d", bus, len(got), len(want))
		}
		for i, s := range got {
			if s.Bus != bus || s.EndCycle != want[i] {
				t.Fatalf("bus %d sample %d = %+v, want EndCycle %d", bus, i, s, want[i])
			}
		}
	}
}
