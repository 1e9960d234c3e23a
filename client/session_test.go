package client_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"nanobus/client"
	"nanobus/internal/blob"
	"nanobus/internal/faultinject"
	"nanobus/internal/server"
)

// This file is the implementation-agnostic Session suite: every subtest
// is written against client.Session/client.Transport only, and the whole
// suite runs once per transport. The two transports address the same
// server, so the suite both checks each implementation's contract and
// pins them bit-identical to each other.

// eachTransport runs fn once per transport against one shared service.
func eachTransport(t *testing.T, cfg server.Config, fn func(t *testing.T, tr client.Transport)) {
	t.Helper()
	_, hc, addr := newNBWPService(t, cfg)
	t.Run("http", func(t *testing.T) { fn(t, hc) })
	t.Run("nbwp", func(t *testing.T) { fn(t, dialNBWP(t, addr)) })
}

func sessionSuiteConfig() client.SessionConfig {
	return client.SessionConfig{Node: "90nm", Encoding: "BI", IntervalCycles: 100}
}

// TestSessionSuiteLifecycle drives the full Session surface through the
// interface: open, binary and idle steps, sequenced steps with duplicate
// absorption, result, close.
func TestSessionSuiteLifecycle(t *testing.T) {
	type outcome struct {
		cycles uint64
		total  float64
	}
	results := map[string]outcome{}
	eachTransport(t, server.Config{Store: blob.NewMemStore()}, func(t *testing.T, tr client.Transport) {
		ctx := context.Background()
		sess, err := tr.OpenSession(ctx, sessionSuiteConfig())
		if err != nil {
			t.Fatal(err)
		}
		if sess.ID() == "" {
			t.Fatal("empty session id")
		}

		sum, err := sess.StepBinary(ctx, words(7, 64))
		if err != nil || sum.Words != 64 {
			t.Fatalf("StepBinary = %+v, %v", sum, err)
		}
		if sum, err = sess.StepIdle(ctx, 50); err != nil || sum.Idle != 50 {
			t.Fatalf("StepIdle = %+v, %v", sum, err)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			if sum, err = sess.StepBinarySeq(ctx, seq, words(uint32(seq), 32)); err != nil ||
				sum.Duplicate {
				t.Fatalf("seq %d = %+v, %v", seq, sum, err)
			}
		}
		// A replayed batch is acknowledged, not re-applied.
		if sum, err = sess.StepBinarySeq(ctx, 3, words(3, 32)); err != nil || !sum.Duplicate {
			t.Fatalf("replayed seq = %+v, %v (want duplicate ack)", sum, err)
		}
		// A gap is refused with the typed code on both transports.
		var ae *client.APIError
		if _, err := sess.StepBinarySeq(ctx, 9, words(9, 32)); !errors.As(err, &ae) ||
			ae.Code != server.CodeSeqGap {
			t.Fatalf("seq gap = %v, want %s", err, server.CodeSeqGap)
		}

		res, err := sess.Result(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		wantCycles := uint64(64 + 50 + 3*32)
		if res.Cycles != wantCycles {
			t.Fatalf("cycles = %d, want %d", res.Cycles, wantCycles)
		}
		results[t.Name()] = outcome{cycles: res.Cycles, total: res.Total.TotalJ}

		if err := sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Result(ctx, true); !errors.As(err, &ae) ||
			ae.Code != server.CodeNotFound {
			t.Fatalf("result after close = %v, want %s", err, server.CodeNotFound)
		}
	})
	http, nbwp := results["TestSessionSuiteLifecycle/http"], results["TestSessionSuiteLifecycle/nbwp"]
	if http.cycles == 0 || nbwp.cycles == 0 {
		t.Fatal("a transport subtest did not record a result")
	}
	if math.Float64bits(http.total) != math.Float64bits(nbwp.total) {
		t.Fatalf("transports disagree: http %x vs nbwp %x",
			math.Float64bits(http.total), math.Float64bits(nbwp.total))
	}
}

// TestSessionSuiteDurability drives checkpoint/restore/resurrect through
// the interface: rewind to a stored checkpoint, replay the tail as
// duplicates, and restore from a downloaded envelope.
func TestSessionSuiteDurability(t *testing.T) {
	eachTransport(t, server.Config{Store: blob.NewMemStore()}, func(t *testing.T, tr client.Transport) {
		ctx := context.Background()
		sess, err := tr.OpenSession(ctx, sessionSuiteConfig())
		if err != nil {
			t.Fatal(err)
		}
		step := func(first, last uint64) {
			t.Helper()
			for seq := first; seq <= last; seq++ {
				if _, err := sess.StepBinarySeq(ctx, seq, words(uint32(seq), 64)); err != nil {
					t.Fatalf("seq %d: %v", seq, err)
				}
			}
		}
		step(1, 4)
		info, err := sess.Checkpoint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.Seq != 4 || !info.Stored || info.SHA256 == "" {
			t.Fatalf("checkpoint = %+v", info)
		}
		env, err := sess.CheckpointDownload(ctx)
		if err != nil || len(env) == 0 {
			t.Fatalf("download = %d bytes, %v", len(env), err)
		}
		step(5, 6)

		// Restore rewinds to the stored checkpoint; the tail replays as
		// duplicates up to the frontier and fresh past it.
		resp, err := sess.Restore(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != 4 {
			t.Fatalf("restore seq = %d, want 4", resp.Seq)
		}
		sum, err := sess.StepBinarySeq(ctx, 5, words(5, 64))
		if err != nil || sum.Duplicate {
			// Seq 5 was un-applied by the rewind; it must apply fresh.
			t.Fatalf("post-restore seq 5 = %+v, %v", sum, err)
		}

		// RestoreFrom an inline envelope rewinds the same way.
		if resp, err = sess.RestoreFrom(ctx, env); err != nil || resp.Seq != 4 {
			t.Fatalf("restore-from = %+v, %v", resp, err)
		}

		// Resurrect by id via the transport hands back a working handle.
		sess2, resp2, err := tr.Resurrect(ctx, sess.ID(), nil)
		if err != nil || resp2.Seq != 4 {
			t.Fatalf("resurrect = %+v, %v", resp2, err)
		}
		if _, err := sess2.StepBinarySeq(ctx, 5, words(5, 64)); err != nil {
			t.Fatal(err)
		}
		if err := sess2.Close(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionSuiteAttach opens a session on each transport and reattaches
// it through the other — the same server object answers both wires.
func TestSessionSuiteAttach(t *testing.T) {
	_, hc, addr := newNBWPService(t, server.Config{})
	nc := dialNBWP(t, addr)
	ctx := context.Background()
	for name, pair := range map[string][2]client.Transport{
		"http-to-nbwp": {hc, nc},
		"nbwp-to-http": {nc, hc},
	} {
		t.Run(name, func(t *testing.T) {
			opened, err := pair[0].OpenSession(ctx, sessionSuiteConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := opened.StepBinary(ctx, words(3, 128)); err != nil {
				t.Fatal(err)
			}
			attached, err := pair[1].AttachSession(ctx, opened.ID())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := attached.StepBinary(ctx, words(4, 128)); err != nil {
				t.Fatal(err)
			}
			ra, err := attached.Result(ctx, true)
			if err != nil {
				t.Fatal(err)
			}
			if ra.Cycles != 256 {
				t.Fatalf("cycles across transports = %d, want 256", ra.Cycles)
			}
			if err := attached.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionSuiteErrors checks the typed error surface is uniform:
// every case below must produce the same code on both transports.
func TestSessionSuiteErrors(t *testing.T) {
	defer faultinject.Reset()
	const maxBatch = 64
	eachTransport(t, server.Config{MaxBatchWords: maxBatch}, func(t *testing.T, tr client.Transport) {
		ctx := context.Background()
		expect := func(what string, err error, code string) {
			t.Helper()
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.Code != code {
				t.Fatalf("%s = %v, want %s", what, err, code)
			}
		}
		_, err := tr.AttachSession(ctx, "00000000deadbeef")
		expect("attach unknown id", err, server.CodeNotFound)
		sess, err := tr.OpenSession(ctx, sessionSuiteConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, isHTTP := sess.(*client.HTTPSession)
		// No store configured: a store-backed restore has nothing to load.
		var ae *client.APIError
		if _, err := sess.Restore(ctx); !errors.As(err, &ae) ||
			(ae.Code != server.CodeNoCheckpoint && ae.Code != server.CodeNoStore) {
			t.Fatalf("restore without store = %v, want no_checkpoint/no_store", err)
		}
		_, err = sess.Checkpoint(ctx)
		expect("checkpoint without store", err, server.CodeNoStore)

		// A duplicate echoes the applied batch's summary without re-stepping.
		first, err := sess.StepBinarySeq(ctx, 1, words(1, 32))
		if err != nil {
			t.Fatal(err)
		}
		dup, err := sess.StepBinarySeq(ctx, 1, words(1, 32))
		if err != nil || !dup.Duplicate || dup.Words != first.Words || dup.Cycles != first.Cycles {
			t.Fatalf("duplicate = %+v, %v; want an echo of %+v", dup, err, first)
		}
		_, err = sess.StepBinarySeq(ctx, 3, words(3, 32))
		expect("seq gap", err, server.CodeSeqGap)

		// One batch past MaxBatchWords, bounded where each codec bounds it:
		// an NDJSON words line on HTTP (binary bodies are read in chunks),
		// one STEP frame on NBWP.
		big := words(5, maxBatch+1)
		if hs, ok := sess.(*client.HTTPSession); ok {
			_, err = hs.StepLines(ctx, []client.StepLine{{Words: big}})
		} else {
			_, err = sess.StepBinary(ctx, big)
		}
		expect("oversized batch", err, server.CodeBatchTooLarge)

		// A sequenced batch that fails mid-apply blocks its own retry and
		// any checkpoint of the tainted state. HTTP reads a binary body in
		// MaxBatchWords chunks, so the failpoint's second hit lands after
		// the first chunk stepped; an NBWP frame is a single chunk.
		spec, n := "error,nth=1", maxBatch
		if isHTTP {
			spec, n = "error,nth=2", 2*maxBatch
		}
		if err := faultinject.Set("server.ingest.decode", spec); err != nil {
			t.Fatal(err)
		}
		_, err = sess.StepBinarySeq(ctx, 2, words(2, n))
		faultinject.Reset()
		expect("injected mid-batch failure", err, server.CodeBadRequest)
		_, err = sess.StepBinarySeq(ctx, 2, words(2, n))
		expect("retry after partial apply", err, server.CodeSeqConflict)
		_, err = sess.CheckpointDownload(ctx)
		expect("checkpoint of tainted state", err, server.CodeSeqConflict)

		// A second handle on a closed session finds it gone.
		other, err := tr.AttachSession(ctx, sess.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
		_, err = other.StepBinary(ctx, words(6, 8))
		expect("step on a closed session", err, server.CodeNotFound)
	})
}
