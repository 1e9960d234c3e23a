package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nanobus/client"
	"nanobus/internal/blob"
	"nanobus/internal/nbwp"
	"nanobus/internal/server"
)

// newNBWPServer stands up a server with an NBWP listener and returns the
// dial address. The HTTP surface is not mounted: these tests pin the
// transport's own behaviour, not cross-transport fidelity (the client
// suite covers that).
func newNBWPServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		//nanolint:ignore droppederr the accept loop's exit error is net.ErrClosed on cleanup
		_ = srv.ServeNBWP(lis)
	}()
	t.Cleanup(func() {
		//nanolint:ignore droppederr test cleanup; the listener may already be closed by Drain
		_ = lis.Close()
	})
	return srv, lis.Addr().String()
}

// rawNBWP speaks frames directly, bypassing the client, so the server's
// handling of traffic a well-behaved client never produces is testable.
type rawNBWP struct {
	t  *testing.T
	c  net.Conn
	fr nbwp.FrameReader
	fw nbwp.FrameWriter
	bw *bufio.Writer
}

func dialRawNBWP(t *testing.T, addr string) *rawNBWP {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//nanolint:ignore droppederr test cleanup; the connection may already be closed
		_ = c.Close()
	})
	r := &rawNBWP{t: t, c: c, bw: bufio.NewWriter(c)}
	r.fr = nbwp.FrameReader{R: bufio.NewReader(c), Max: nbwp.MaxPayload}
	r.fw = nbwp.FrameWriter{W: r.bw}
	return r
}

func (r *rawNBWP) send(h nbwp.Header, payload []byte) {
	r.t.Helper()
	if err := r.fw.WriteFrame(h, payload); err != nil {
		r.t.Fatal(err)
	}
	if err := r.bw.Flush(); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawNBWP) recv() (nbwp.Header, []byte) {
	r.t.Helper()
	var h nbwp.Header
	p, err := r.fr.ReadFrame(&h)
	if err != nil {
		r.t.Fatalf("read frame: %v", err)
	}
	return h, bytes.Clone(p)
}

// expectError requires the next frame to be an ERROR echoing slot/seq
// with the given v1 status and code.
func (r *rawNBWP) expectError(req nbwp.Header, wantStatus int, wantCode string) {
	r.t.Helper()
	h, p := r.recv()
	if h.Type != nbwp.TypeError || h.Slot != req.Slot || h.Seq != req.Seq {
		r.t.Fatalf("got %+v, want ERROR echoing slot %d seq %d", h, req.Slot, req.Seq)
	}
	we, err := nbwp.ParseError(p)
	if err != nil {
		r.t.Fatal(err)
	}
	if we.Status != wantStatus || we.Code != wantCode {
		r.t.Fatalf("error = %d %q (%s), want %d %q", we.Status, we.Code, we.Msg, wantStatus, wantCode)
	}
}

// restorePayload is the RESTORE payload naming id, without an envelope.
func restorePayload(id string) []byte {
	b, err := nbwp.AppendRestore(nil, nbwp.Restore{ID: id})
	if err != nil {
		panic(err)
	}
	return b
}

func (r *rawNBWP) expectAck(req nbwp.Header) []byte {
	r.t.Helper()
	h, p := r.recv()
	if h.Type != nbwp.TypeAck || h.Slot != req.Slot || h.Seq != req.Seq {
		r.t.Fatalf("got %+v, want ACK echoing slot %d seq %d", h, req.Slot, req.Seq)
	}
	return p
}

// TestNBWPProtocolErrors exhausts the per-frame validation branches: the
// server must answer every malformed request with one ERROR frame
// carrying the v1 status/code, and keep the connection usable.
func TestNBWPProtocolErrors(t *testing.T) {
	_, addr := newNBWPServer(t, server.Config{MaxBatchWords: 8})
	r := dialRawNBWP(t, addr)

	hello := nbwp.Header{Type: nbwp.TypeHello}
	r.send(hello, nil)
	if p := r.expectAck(hello); len(p) != 0 {
		t.Fatalf("HELLO ack carries %d payload bytes", len(p))
	}

	cases := []struct {
		name    string
		h       nbwp.Header
		payload []byte
		status  int
		code    string
	}{
		{"unknown type", nbwp.Header{Type: nbwp.Type(0x7F), Seq: 9}, nil,
			http.StatusBadRequest, server.CodeBadRequest},
		{"open slot 0", nbwp.Header{Type: nbwp.TypeOpen}, []byte(`{"node":"90nm"}`),
			http.StatusBadRequest, server.CodeBadRequest},
		{"open bad json", nbwp.Header{Type: nbwp.TypeOpen, Slot: 1}, []byte(`{"nod`),
			http.StatusBadRequest, server.CodeBadRequest},
		{"attach unknown", nbwp.Header{Type: nbwp.TypeOpen, Slot: 1, Flags: nbwp.FlagAttach}, []byte("nope"),
			http.StatusNotFound, server.CodeNotFound},
		{"step slot 0", nbwp.Header{Type: nbwp.TypeStep}, []byte{1, 0, 0, 0},
			http.StatusBadRequest, server.CodeBadRequest},
		{"step unbound slot", nbwp.Header{Type: nbwp.TypeStep, Slot: 7}, []byte{1, 0, 0, 0},
			http.StatusNotFound, server.CodeNotFound},
		{"restore slot 0", nbwp.Header{Type: nbwp.TypeRestore}, restorePayload("id"),
			http.StatusBadRequest, server.CodeBadRequest},
		{"restore bad payload", nbwp.Header{Type: nbwp.TypeRestore, Slot: 1}, []byte{9},
			http.StatusBadRequest, server.CodeBadRequest},
		{"restore unbound unnamed", nbwp.Header{Type: nbwp.TypeRestore, Slot: 3}, restorePayload(""),
			http.StatusNotFound, server.CodeNotFound},
		{"goodbye unbound slot", nbwp.Header{Type: nbwp.TypeGoodbye, Slot: 5}, nil,
			http.StatusNotFound, server.CodeNotFound},
	}
	for _, tc := range cases {
		r.send(tc.h, tc.payload)
		r.expectError(tc.h, tc.status, tc.code)
	}

	// Bind slot 1, then exhaust the STEP validation on a live session.
	open := nbwp.Header{Type: nbwp.TypeOpen, Slot: 1, Seq: 1}
	r.send(open, []byte(`{"node":"90nm","interval_cycles":256}`))
	if p := r.expectAck(open); !bytes.Contains(p, []byte(`"id"`)) {
		t.Fatalf("OPEN ack is not a SessionInfo document: %s", p)
	}
	bound := []struct {
		name    string
		h       nbwp.Header
		payload []byte
		status  int
		code    string
	}{
		{"open bound slot", nbwp.Header{Type: nbwp.TypeOpen, Slot: 1}, []byte(`{"node":"90nm"}`),
			http.StatusConflict, server.CodeBadRequest},
		{"step ragged payload", nbwp.Header{Type: nbwp.TypeStep, Slot: 1}, []byte{1, 2, 3},
			http.StatusBadRequest, server.CodeBadRequest},
		{"step seq 0", nbwp.Header{Type: nbwp.TypeStep, Slot: 1, Flags: nbwp.FlagSeq}, []byte{1, 0, 0, 0},
			http.StatusBadRequest, server.CodeBadRequest},
		{"step oversized batch", nbwp.Header{Type: nbwp.TypeStep, Slot: 1}, make([]byte, 4*9),
			http.StatusRequestEntityTooLarge, server.CodeBatchTooLarge},
		{"idle ragged payload", nbwp.Header{Type: nbwp.TypeStepIdle, Slot: 1}, []byte{1, 2, 3},
			http.StatusBadRequest, server.CodeBadRequest},
		{"checkpoint without store", nbwp.Header{Type: nbwp.TypeCheckpoint, Slot: 1}, nil,
			http.StatusNotImplemented, server.CodeNoStore},
		{"restore without store or envelope", nbwp.Header{Type: nbwp.TypeRestore, Slot: 1}, restorePayload(""),
			http.StatusNotImplemented, server.CodeNoStore},
	}
	for _, tc := range bound {
		r.send(tc.h, tc.payload)
		r.expectError(tc.h, tc.status, tc.code)
	}

	// The connection survived all of it: a valid STEP still works.
	step := nbwp.Header{Type: nbwp.TypeStep, Slot: 1, Seq: 42}
	r.send(step, []byte{0x10, 0, 0, 0, 0x14, 0, 0, 0})
	var ack nbwp.StepAck
	if err := nbwp.ParseStepAck(r.expectAck(step), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Words != 2 || ack.Cycles != 2 {
		t.Fatalf("step ack = %+v, want 2 words, 2 cycles", ack)
	}

	// Connection-scope GOODBYE: one empty ack, then the server hangs up.
	bye := nbwp.Header{Type: nbwp.TypeGoodbye}
	r.send(bye, nil)
	r.expectAck(bye)
	var h nbwp.Header
	if _, err := r.fr.ReadFrame(&h); !errors.Is(err, io.EOF) {
		t.Fatalf("after GOODBYE read = %v, want EOF", err)
	}
}

// TestNBWPDamagedFramingHangsUp: a broken header is unrecoverable — the
// server reports one framing ERROR and closes the connection.
func TestNBWPDamagedFramingHangsUp(t *testing.T) {
	_, addr := newNBWPServer(t, server.Config{})
	r := dialRawNBWP(t, addr)
	if _, err := r.c.Write(bytes.Repeat([]byte{'X'}, nbwp.HeaderLen)); err != nil {
		t.Fatal(err)
	}
	h, p := r.recv()
	if h.Type != nbwp.TypeError {
		t.Fatalf("got %+v, want ERROR", h)
	}
	we, err := nbwp.ParseError(p)
	if err != nil || we.Status != http.StatusBadRequest || we.Code != server.CodeBadRequest {
		t.Fatalf("framing error = %d %q (%v)", we.Status, we.Code, err)
	}
	if _, err := r.fr.ReadFrame(&h); !errors.Is(err, io.EOF) {
		t.Fatalf("after damaged framing read = %v, want EOF", err)
	}
}

// TestNBWPServerLifecycle drives the full session surface over NBWP via
// the Go client: open-with-stream, sequenced steps with duplicate and
// gap handling, idle, checkpoint both ways, restore rewind, result,
// close.
func TestNBWPServerLifecycle(t *testing.T) {
	ctx := context.Background()
	_, addr := newNBWPServer(t, server.Config{Store: blob.NewMemStore()})
	nc, err := client.DialNBWP(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	var streamed []client.Sample
	sess, err := nc.Open(ctx, client.SessionConfig{Node: "90nm", Encoding: "BI", IntervalCycles: 64},
		func(s client.Sample) { streamed = append(streamed, s) })
	if err != nil {
		t.Fatal(err)
	}
	words := testWords(7, 256)
	sum, err := sess.StepBinarySeq(ctx, 1, words)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Words != 256 || sum.Seq != 1 || sum.Duplicate {
		t.Fatalf("seq 1 summary = %+v", sum)
	}
	if sum.Samples == 0 || len(streamed) == 0 {
		t.Fatalf("expected streamed samples (ack %d, streamed %d)", sum.Samples, len(streamed))
	}

	// Replay is absorbed, not re-stepped; skipping ahead is a gap.
	dup, err := sess.StepBinarySeq(ctx, 1, words)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate || dup.Cycles != sum.Cycles {
		t.Fatalf("replay summary = %+v, want duplicate at %d cycles", dup, sum.Cycles)
	}
	var apiErr *client.APIError
	if _, err := sess.StepBinarySeq(ctx, 5, words); !errors.As(err, &apiErr) ||
		apiErr.Code != server.CodeSeqGap || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("seq gap err = %v", err)
	}

	if _, err := sess.StepIdle(ctx, 100); err != nil {
		t.Fatal(err)
	}
	info, err := sess.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Cycles != 356 {
		t.Fatalf("checkpoint info = %+v, want seq 1 at 356 cycles", info)
	}
	env, err := sess.CheckpointDownload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(env) == 0 {
		t.Fatal("downloaded envelope is empty")
	}

	// Step past the checkpoint, rewind from the store, replay.
	if _, err := sess.StepBinarySeq(ctx, 2, words); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Restore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 1 || res.Cycles != 356 || res.Resurrected {
		t.Fatalf("restore = %+v, want in-place rewind to seq 1", res)
	}
	if _, err := sess.StepBinarySeq(ctx, 2, words); err != nil {
		t.Fatal(err)
	}
	// The inline-envelope path rewinds the same way.
	if res, err = sess.RestoreFrom(ctx, env); err != nil || res.Seq != 1 {
		t.Fatalf("restore from envelope = %+v, %v", res, err)
	}
	if _, err := sess.StepBinarySeq(ctx, 2, words); err != nil {
		t.Fatal(err)
	}

	final, err := sess.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if final.Cycles != 612 || final.Total.TotalJ <= 0 {
		t.Fatalf("result = %d cycles, %g J", final.Cycles, final.Total.TotalJ)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := nc.Goodbye(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestNBWPResurrectionAcrossServers: two servers sharing one store model
// a daemon restart; RESTORE on a fresh connection resurrects the session
// by id even though the new server never saw it.
func TestNBWPResurrectionAcrossServers(t *testing.T) {
	ctx := context.Background()
	store := blob.NewMemStore()
	_, addr1 := newNBWPServer(t, server.Config{Store: store})
	nc1, err := client.DialNBWP(ctx, addr1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := nc1.Open(ctx, client.SessionConfig{Node: "65nm", IntervalCycles: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.StepBinarySeq(ctx, 1, testWords(3, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	id := sess.Info.ID
	if err := nc1.Close(); err != nil {
		t.Fatal(err)
	}

	_, addr2 := newNBWPServer(t, server.Config{Store: store})
	nc2, err := client.DialNBWP(ctx, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	sess2, res, err := nc2.RestoreSession(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resurrected || res.Seq != 1 || res.Cycles != 200 {
		t.Fatalf("resurrection = %+v, want seq 1 at 200 cycles", res)
	}
	// The restored slot is live: the next sequenced batch applies.
	if sum, err := sess2.StepBinarySeq(ctx, 2, testWords(4, 100)); err != nil || sum.Cycles != 300 {
		t.Fatalf("post-resurrection step = %+v, %v", sum, err)
	}
}

// TestNBWPDrainAndShutdown pins the SIGTERM choreography: Drain refuses
// new connections, broadcasts DRAIN to live ones, ShutdownNBWP waits for
// them — and force-closes stragglers once its context expires.
func TestNBWPDrainAndShutdown(t *testing.T) {
	ctx := context.Background()
	srv, addr := newNBWPServer(t, server.Config{})
	nc, err := client.DialNBWP(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	notified := make(chan struct{})
	nc.SetOnDrain(func() { close(notified) })

	srv.Drain()
	select {
	case <-notified:
	case <-time.After(5 * time.Second):
		t.Fatal("DRAIN frame never arrived")
	}
	if !nc.Draining() {
		t.Fatal("client does not report a draining peer")
	}
	if _, err := client.DialNBWP(ctx, addr); err == nil {
		t.Fatal("dial after Drain succeeded; the listener should be closed")
	}

	// The idle connection is a straggler: a short shutdown deadline
	// force-closes it and reports the deadline.
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := srv.ShutdownNBWP(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ShutdownNBWP = %v, want deadline exceeded", err)
	}

	// A listener offered after Drain is refused outright.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeNBWP(lis); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ServeNBWP after Drain = %v, want net.ErrClosed", err)
	}
}

// TestCreateRequestBound: a create document past 1 MiB is refused with
// the same code on both transports, even when it is valid JSON.
func TestCreateRequestBound(t *testing.T) {
	srv, addr := newNBWPServer(t, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	big := []byte(`{"node":"90nm"` + strings.Repeat(" ", 1<<20) + `}`)

	r := dialRawNBWP(t, addr)
	open := nbwp.Header{Type: nbwp.TypeOpen, Slot: 1}
	r.send(open, big)
	r.expectError(open, http.StatusBadRequest, server.CodeBadRequest)

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	checkErrResp(t, resp, http.StatusBadRequest, server.CodeBadRequest)

	// The same document under the bound opens fine.
	small := []byte(`{"node":"90nm"}`)
	r.send(open, small)
	r.expectAck(open)
}
