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
