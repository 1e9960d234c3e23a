package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nanobus/client"
	"nanobus/internal/blob"
	"nanobus/internal/core"
	"nanobus/internal/e2e"
	"nanobus/internal/faultinject"
	"nanobus/internal/server"
)

// ckptConfig is the session shape shared by the durability tests: a
// short interval so a few hundred words close several samples.
func ckptConfig() client.SessionConfig {
	return client.SessionConfig{
		Node:           "90nm",
		Encoding:       "BI",
		IntervalCycles: 100,
	}
}

// seqBatch regenerates the batch for a sequence number from the number
// alone — exactly what a resuming client must be able to do to replay
// unacknowledged work after a restore.
func seqBatch(seq uint64) []uint32 {
	return testWords(uint32(seq)*2654435761+1, 150)
}

// runSeq replays batches first..last (inclusive) in order.
func runSeq(t *testing.T, sess client.Session, first, last uint64) client.StepSummary {
	t.Helper()
	var sum client.StepSummary
	for seq := first; seq <= last; seq++ {
		var err error
		sum, err = sess.StepBinarySeq(context.Background(), seq, seqBatch(seq))
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
	return sum
}

// sameResult requires two session results to be bit-identical under the
// gates' shared definition (e2e.SameResult).
func sameResult(t *testing.T, want, got *client.Result) {
	t.Helper()
	if err := e2e.SameResult(want, got); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRestoreReplayBitIdentical(t *testing.T) {
	_, c := newTestService(t, server.Config{Store: blob.NewMemStore()})
	ctx := context.Background()

	// Uninterrupted reference run: seqs 1..6 straight through.
	ref, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, ref, 1, 6)
	want, err := ref.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint after seq 3, keep going to 5, then
	// rewind to the checkpoint and replay 4..6.
	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 1, 3)
	info, err := sess.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 3 || !info.Stored || info.Cycles == 0 || len(info.SHA256) != 64 {
		t.Fatalf("checkpoint info = %+v", info)
	}
	runSeq(t, sess, 4, 5)
	res, err := sess.Restore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 3 || res.Resurrected {
		t.Fatalf("restore = %+v, want seq 3 in place", res)
	}
	st, err := sess.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 3 || st.Words != res.Words {
		t.Fatalf("status after restore = %+v", st)
	}
	runSeq(t, sess, 4, 6)
	got, err := sess.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
}

func TestSeqDuplicateAndGap(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.StepBinarySeq(ctx, 1, seqBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.Duplicate || first.Seq != 1 {
		t.Fatalf("first apply = %+v", first)
	}
	// The same batch again: acknowledged, not re-stepped.
	dup, err := sess.StepBinarySeq(ctx, 1, seqBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate || dup.Words != first.Words || dup.Cycles != first.Cycles {
		t.Fatalf("duplicate ack = %+v, want echo of %+v", dup, first)
	}
	st, err := sess.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Words != first.Words {
		t.Fatalf("duplicate double-counted: words %d after ack, %d after apply", st.Words, first.Words)
	}
	// Skipping ahead is a protocol error, not silent data loss.
	_, err = sess.StepBinarySeq(ctx, 3, seqBatch(3))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != server.CodeSeqGap {
		t.Fatalf("seq gap error = %v", err)
	}
	// seq=0 is reserved (the "never sequenced" sentinel) and rejected.
	_, err = sess.StepBinarySeq(ctx, 0, seqBatch(0))
	if !errors.As(err, &ae) || ae.Code != server.CodeBadRequest {
		t.Fatalf("seq=0 error = %v", err)
	}
}

func TestSeqConflictAfterMidBatchFailure(t *testing.T) {
	defer faultinject.Reset()
	_, c := newTestService(t, server.Config{Store: blob.NewMemStore()})
	ctx := context.Background()

	ref, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, ref, 1, 3)
	want, err := ref.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 1, 2)
	if _, err := sess.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Fail the second NDJSON line of the next batch: the first line has
	// already mutated the simulator, so the batch is partially applied.
	if err := faultinject.Set("server.ingest.decode", "error,nth=2"); err != nil {
		t.Fatal(err)
	}
	lines := []client.StepLine{{Words: seqBatch(3)[:75]}, {Words: seqBatch(3)[75:]}}
	_, err = sess.StepLinesSeq(ctx, 3, lines)
	faultinject.Reset()
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != server.CodeBadRequest {
		t.Fatalf("injected mid-batch failure = %v", err)
	}
	// A blind retry must NOT be applied on top of the partial state.
	_, err = sess.StepLinesSeq(ctx, 3, lines)
	if !errors.As(err, &ae) || ae.Code != server.CodeSeqConflict {
		t.Fatalf("retry after partial apply = %v, want seq_conflict", err)
	}
	// Checkpointing the tainted state is refused too.
	_, err = sess.Checkpoint(ctx)
	if !errors.As(err, &ae) || ae.Code != server.CodeSeqConflict {
		t.Fatalf("checkpoint of tainted state = %v, want seq_conflict", err)
	}
	// Restore rewinds to seq 2; the replay then lands exactly once.
	res, err := sess.Restore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 2 {
		t.Fatalf("restored seq = %d, want 2", res.Seq)
	}
	if _, err := sess.StepLinesSeq(ctx, 3, lines); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
}

func TestResurrectionAcrossProcessRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Reference run on a single long-lived server.
	_, cRef := newTestService(t, server.Config{})
	ref, err := cRef.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, ref, 1, 5)
	want, err := ref.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}

	// First "process": step to seq 3, checkpoint, then die without
	// warning (the httptest server is simply torn down).
	srv1 := server.New(server.Config{Store: store})
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL, client.WithHTTPClient(ts1.Client()))
	sess1, err := c1.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess1, 1, 3)
	if _, err := sess1.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	id := sess1.Info.ID
	ts1.Close()

	// Second process shares only the checkpoint directory.
	srv2 := server.New(server.Config{Store: store})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL, client.WithHTTPClient(ts2.Client()))
	sess2 := c2.Session(id)
	res, err := sess2.Restore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resurrected || res.Seq != 3 {
		t.Fatalf("resurrection = %+v, want resurrected at seq 3", res)
	}
	// A duplicate of the last acknowledged batch is absorbed...
	dup, err := sess2.StepBinarySeq(ctx, 3, seqBatch(3))
	if err != nil || !dup.Duplicate {
		t.Fatalf("replayed seq 3 = %+v, %v", dup, err)
	}
	// ...and the remaining work replays to a bit-identical figure.
	runSeq(t, sess2, 4, 5)
	got, err := sess2.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
	if srv2.SessionsActive() != 1 {
		t.Fatalf("active sessions = %d, want 1", srv2.SessionsActive())
	}
}

func TestRestoreResurrectsPoisonedSession(t *testing.T) {
	defer faultinject.Reset()
	_, c := newTestService(t, server.Config{Store: blob.NewMemStore()})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 1, 2)
	if _, err := sess.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Poison the simulator mid-interval on the next batch.
	if err := faultinject.Set("core.interval.flush", "error"); err != nil {
		t.Fatal(err)
	}
	_, err = sess.StepBinarySeq(ctx, 3, seqBatch(3))
	faultinject.Reset()
	var ae *client.APIError
	if !errors.As(err, &ae) || !errors.Is(ae, core.ErrPoisoned) {
		t.Fatalf("poisoned step = %v", err)
	}
	// Every later touch fails the same way until a restore clears it.
	if _, err := sess.Result(ctx, true); !errors.Is(err, core.ErrPoisoned) {
		t.Fatalf("result on poisoned session = %v", err)
	}
	if res, err := sess.Restore(ctx); err != nil || res.Seq != 2 {
		t.Fatalf("restore of poisoned session = %+v, %v", res, err)
	}
	if _, err := sess.StepBinarySeq(ctx, 3, seqBatch(3)); err != nil {
		t.Fatalf("step after resurrection: %v", err)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	store := blob.NewMemStore()
	_, c := newTestService(t, server.Config{Store: store, AutoCheckpointCycles: 200})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 3 batches x 150 words crosses the 200-cycle pacing twice; no
	// manual checkpoint is ever taken.
	runSeq(t, sess, 1, 3)
	res, err := sess.Restore(ctx)
	if err != nil {
		t.Fatalf("restore from auto checkpoint: %v", err)
	}
	if res.Seq == 0 || res.Seq > 3 {
		t.Fatalf("auto checkpoint captured seq %d", res.Seq)
	}
	// The session replays forward from the captured point and the final
	// state matches an uninterrupted run.
	runSeq(t, sess, res.Seq+1, 3)
	got, err := sess.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, ref, 1, 3)
	want, err := ref.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
}

func TestCheckpointDownloadNoStore(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Without a store, a bare checkpoint has nowhere to go...
	_, err = sess.Checkpoint(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != server.CodeNoStore {
		t.Fatalf("checkpoint without store = %v", err)
	}
	// ...but ?download=1 hands the envelope to the client, and an inline
	// restore rewinds from it.
	runSeq(t, sess, 1, 2)
	env, err := sess.CheckpointDownload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 3, 4)
	res, err := sess.RestoreFrom(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 2 {
		t.Fatalf("inline restore seq = %d, want 2", res.Seq)
	}
	// Store-less restore without a body has nothing to load.
	_, err = sess.Restore(ctx)
	if !errors.As(err, &ae) || ae.Code != server.CodeNoStore {
		t.Fatalf("bodyless restore without store = %v", err)
	}
}

func TestRestoreRejectsCorruptAndMismatched(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 1, 2)
	env, err := sess.CheckpointDownload(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var ae *client.APIError
	// Structural damage anywhere in the envelope is rejected cleanly.
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		// A zero-length body means "load from the store", so the shortest
		// inline envelope that can reach the decoder is one byte.
		{"one byte", func(b []byte) []byte { return b[:1] }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit flip", func(b []byte) []byte { b[len(b)/3] ^= 0x40; return b }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xEE) }},
	} {
		bad := tc.mutate(append([]byte(nil), env...))
		_, err := sess.RestoreFrom(ctx, bad)
		if !errors.As(err, &ae) || ae.Code != server.CodeCheckpointCorrupt {
			t.Errorf("%s: restore = %v, want checkpoint_corrupt", tc.name, err)
		}
		if !errors.Is(err, core.ErrCheckpointCorrupt) {
			t.Errorf("%s: error does not unwrap to ErrCheckpointCorrupt", tc.name)
		}
	}

	// A healthy envelope restored into a differently-configured session
	// is a mismatch, and the target session is untouched by the attempt.
	other, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm", Encoding: "Gray", IntervalCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	before, err := other.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = other.RestoreFrom(ctx, env)
	if !errors.As(err, &ae) || ae.Code != server.CodeCheckpointMismatch {
		t.Fatalf("cross-config restore = %v, want checkpoint_mismatch", err)
	}
	after, err := other.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("failed restore mutated the session: %+v -> %+v", before, after)
	}
}

// withCoreFloat returns a copy of a scalar session's checkpoint envelope
// whose core NBCP v4 blob stores val in one f64 field, the cumulative
// self energy ("self") or the thermal ambient ("ambient"), with both CRCs
// recomputed. It walks the envelope (checkpoint.go) and the v4 layout
// (internal/core/checkpoint.go) to the field.
func withCoreFloat(t *testing.T, env []byte, width int, field string, val float64) []byte {
	t.Helper()
	out := append([]byte(nil), env...)
	le := binary.LittleEndian
	// Envelope: magic, version, seq, words, idle, then cfg and core
	// sections (u32 length + bytes), then the envelope CRC.
	off := 4 + 2 + 3*8
	off += 4 + int(le.Uint32(out[off:]))
	core := out[off+4 : len(out)-4]
	// Core: header, node and encoding strings, the rest of the
	// fingerprint, counters, then the cumulative total.
	at := 8
	for range 2 {
		at += 2 + int(le.Uint16(core[at:]))
	}
	at += 4 + 8 + 8 + 8 + 1
	at += 8 + 8
	if field == "ambient" {
		// Totals and window, window counts, encoder state.
		at += 2*(1+width)*24 + 8 + 1 + 8 + 8
		at += width*8 + width*(width-1)/2*8
		at += 8 + 4 + 1
		if got := math.Float64frombits(le.Uint64(core[at:])); got < 200 || got > 500 {
			t.Fatalf("core field at offset %d is %g, not an ambient in kelvin", at, got)
		}
	}
	le.PutUint64(core[at:], math.Float64bits(val))
	le.PutUint32(core[len(core)-4:], crc32.ChecksumIEEE(core[:len(core)-4]))
	le.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestRestoreRejectsBadAmbientUntouched sends inline restores whose core
// blob has a negative ambient or a NaN cumulative energy (both CRCs
// valid). Each must be a 422 checkpoint_corrupt, and the live session
// must carry on as if the requests never came: its later steps and
// result match an uninterrupted run bit for bit.
func TestRestoreRejectsBadAmbientUntouched(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()

	ref, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, ref, 1, 6)
	want, err := ref.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 1, 2)
	env, err := sess.CheckpointDownload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 3, 4)
	for _, bad := range []struct {
		field string
		val   float64
	}{{"ambient", -1}, {"self", math.NaN()}} {
		_, err = sess.RestoreFrom(ctx, withCoreFloat(t, env, want.Width, bad.field, bad.val))
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity || ae.Code != server.CodeCheckpointCorrupt {
			t.Fatalf("restore with %s %g = %v, want 422 checkpoint_corrupt", bad.field, bad.val, err)
		}
	}
	runSeq(t, sess, 5, 6)
	got, err := sess.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
}

func TestFSStoreTruncatedSaveRejectedOnRestore(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	store, err := blob.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestService(t, server.Config{Store: store})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 1, 2)
	// The store silently writes a torn envelope (a dying disk).
	if err := faultinject.Set("store.fs.truncate", "truncate=40"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint with torn store write: %v", err)
	}
	faultinject.Reset()
	_, err = sess.Restore(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != server.CodeCheckpointCorrupt {
		t.Fatalf("restore of torn envelope = %v, want checkpoint_corrupt", err)
	}
	// An injected store error surfaces as a checkpoint failure.
	if err := faultinject.Set("store.fs.save", "error"); err != nil {
		t.Fatal(err)
	}
	_, err = sess.Checkpoint(ctx)
	faultinject.Reset()
	if err == nil {
		t.Fatal("checkpoint with failing store succeeded")
	}
}

func TestDeleteRemovesStoredCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestService(t, server.Config{Store: store})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 1, 1)
	if _, err := sess.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.nbse"))
	if err != nil || len(files) != 1 {
		t.Fatalf("stored envelopes = %v, %v", files, err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(files[0]); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("envelope survived session delete: %v", err)
	}
	// A deleted session cannot be resurrected.
	_, err = sess.Restore(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != server.CodeNoCheckpoint {
		t.Fatalf("restore after delete = %v, want no_checkpoint", err)
	}
}

func TestFSStoreRejectsHostileIDs(t *testing.T) {
	store, err := blob.NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../escape", "a/b", "UPPER", strings.Repeat("a", 65)} {
		if err := store.Put(context.Background(), id, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a hostile id", id)
		}
		if _, err := store.Get(context.Background(), id); err == nil {
			t.Errorf("Get(%q) accepted a hostile id", id)
		}
	}
}

// stallingStore is a checkpoint store whose Put and Delete block until
// their context ends, like a replica that never answers.
type stallingStore struct{ blob.Store }

func (stallingStore) Put(ctx context.Context, _ string, _ []byte) error {
	<-ctx.Done()
	return ctx.Err()
}

func (stallingStore) Delete(ctx context.Context, _ string) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestRequestTimeoutBoundsStoreCalls: with RequestTimeout set, checkpoint
// and delete give up on a stalled store within a few multiples of it.
func TestRequestTimeoutBoundsStoreCalls(t *testing.T) {
	const timeout = 100 * time.Millisecond
	_, c := newTestService(t, server.Config{
		Store: stallingStore{blob.NewMemStore()}, RequestTimeout: timeout,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, err := c.CreateSession(ctx, ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSeq(t, sess, 1, 1)

	start := time.Now()
	_, err = sess.Checkpoint(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != server.CodeCanceled {
		t.Fatalf("checkpoint on a stalled store = %v, want %s", err, server.CodeCanceled)
	}
	if d := time.Since(start); d > 20*timeout {
		t.Fatalf("checkpoint took %v with a %v RequestTimeout", d, timeout)
	}

	start = time.Now()
	// The stored copy cannot be dropped, but the session is closed.
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*timeout {
		t.Fatalf("delete took %v with a %v RequestTimeout", d, timeout)
	}
}
