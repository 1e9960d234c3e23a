package client_test

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanobus/client"
	"nanobus/internal/blob"
	"nanobus/internal/server"
)

// newNBWPService stands up one server with both surfaces: the HTTP
// handler via httptest and an NBWP listener on a loopback port.
func newNBWPService(t *testing.T, cfg server.Config) (*server.Server, *client.Client, string) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
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
	return srv, client.New(ts.URL, client.WithHTTPClient(ts.Client())), lis.Addr().String()
}

func dialNBWP(t *testing.T, addr string) *client.NBWPConn {
	t.Helper()
	nc, err := client.DialNBWP(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//nanolint:ignore droppederr test cleanup; the connection may already be closed
		_ = nc.Close()
	})
	return nc
}

// TestNBWPPipelinedSeq streams a window of sequenced batches without
// waiting, then verifies acks arrive in order, duplicates are
// acknowledged idempotently, and gaps are rejected — the write-ahead
// idempotency machinery over the pipelined transport.
func TestNBWPPipelinedSeq(t *testing.T) {
	_, _, addr := newNBWPService(t, server.Config{})
	ctx := context.Background()
	nc := dialNBWP(t, addr)
	ns, err := nc.Open(ctx, client.SessionConfig{Node: "65nm", IntervalCycles: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const batches = 20
	const batchWords = 96
	pend := make([]*client.StepPending, 0, batches)
	for seq := uint64(1); seq <= batches; seq++ {
		sp, err := ns.SendStepSeq(seq, words(uint32(seq), batchWords))
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, sp)
	}
	var cycles uint64
	for i, sp := range pend {
		sum, err := sp.Wait(ctx)
		if err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		if sum.Duplicate || sum.Seq != uint64(i+1) || sum.Words != batchWords {
			t.Fatalf("batch %d ack = %+v", i+1, sum)
		}
		if sum.Cycles <= cycles {
			t.Fatalf("batch %d cycles %d not monotonic past %d", i+1, sum.Cycles, cycles)
		}
		cycles = sum.Cycles
	}

	// Replaying an applied seq is acknowledged without re-stepping.
	dup, err := ns.StepBinarySeq(ctx, batches, words(batches, batchWords))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate || dup.Cycles != cycles {
		t.Fatalf("duplicate ack = %+v, want Duplicate with cycles %d", dup, cycles)
	}
	// Skipping ahead is a seq_gap conflict carrying the HTTP status.
	_, err = ns.StepBinarySeq(ctx, batches+5, words(1, 8))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != "seq_gap" || ae.StatusCode != 409 {
		t.Fatalf("gap err = %v, want seq_gap/409", err)
	}
	// The pipeline is intact after the error: the next consecutive seq
	// applies normally.
	next, err := ns.StepBinarySeq(ctx, batches+1, words(99, batchWords))
	if err != nil || next.Duplicate {
		t.Fatalf("post-gap step = %+v, %v", next, err)
	}
}

// TestNBWPReconnectReplay is the crash-recovery flow: checkpoint, kill
// the connection mid-stream without a goodbye, reconnect, restore, and
// replay from the acknowledged frontier. The final figures must be
// bit-identical to an uninterrupted run of the same schedule.
func TestNBWPReconnectReplay(t *testing.T) {
	store := blob.NewMemStore()
	_, _, addr := newNBWPService(t, server.Config{Store: store})
	ctx := context.Background()
	cfg := client.SessionConfig{Node: "90nm", IntervalCycles: 256}
	const batches = 12
	const batchWords = 128

	// Reference: the same schedule, uninterrupted.
	ref := dialNBWP(t, addr)
	rs, err := ref.Open(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= batches; seq++ {
		if _, err := rs.StepBinarySeq(ctx, seq, words(uint32(seq), batchWords)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := rs.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}

	// Crashy run: checkpoint at seq 5, keep going, then drop the
	// connection with acked-but-uncheckpointed batches outstanding.
	nc := dialNBWP(t, addr)
	ns, err := nc.Open(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := ns.Info.ID
	for seq := uint64(1); seq <= 8; seq++ {
		if _, err := ns.StepBinarySeq(ctx, seq, words(uint32(seq), batchWords)); err != nil {
			t.Fatal(err)
		}
		if seq == 5 {
			if _, err := ns.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	//nanolint:ignore droppederr simulating a crash; the abrupt close error is the point
	_ = nc.Close()

	// Reconnect and restore. The store has seq 5; everything after the
	// checkpoint replays — including batches 6-8 the dead connection had
	// acked — and duplicates are impossible because the restore rewound
	// the acknowledged frontier with the state.
	nc2 := dialNBWP(t, addr)
	ns2, resp, err := nc2.RestoreSession(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 5 {
		t.Fatalf("restored seq = %d, want 5", resp.Seq)
	}
	for seq := resp.Seq + 1; seq <= batches; seq++ {
		if _, err := ns2.StepBinarySeq(ctx, seq, words(uint32(seq), batchWords)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ns2.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || !bitsEq(got.Total.TotalJ, want.Total.TotalJ) ||
		!bitsEq(got.MaxTempK, want.MaxTempK) {
		t.Fatalf("replayed run differs:\ngot  %v %v\nwant %v %v",
			got.Cycles, got.Total.TotalJ, want.Cycles, want.Total.TotalJ)
	}
}

// TestNBWPDrainZeroLoss drains the server in the middle of a pipelined
// sequenced stream and requires that (a) the client is told via a DRAIN
// frame, (b) every batch acknowledged before the connection wound down
// is reflected in the session's durable state, and (c) ShutdownNBWP
// completes once the client finishes. This is the protocol-level half of
// the SIGTERM zero-loss guarantee.
func TestNBWPDrainZeroLoss(t *testing.T) {
	store := blob.NewMemStore()
	srv, _, addr := newNBWPService(t, server.Config{Store: store})
	ctx := context.Background()
	nc := dialNBWP(t, addr)

	drained := make(chan struct{})
	var once sync.Once
	nc.SetOnDrain(func() { once.Do(func() { close(drained) }) })

	ns, err := nc.Open(ctx, client.SessionConfig{Node: "65nm", IntervalCycles: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const batchWords = 64
	var ackedSeq uint64
	var ackedCycles uint64
	// Stream sequenced batches with a pipeline window of 4 until the
	// drain notice arrives (Drain fires from another goroutine below).
	go func() {
		time.Sleep(10 * time.Millisecond)
		srv.Drain()
	}()
	window := make([]*client.StepPending, 0, 4)
	seqs := make([]uint64, 0, 4)
	flushWindow := func() bool {
		ok := true
		for i, sp := range window {
			sum, err := sp.Wait(ctx)
			if err != nil {
				ok = false
				break
			}
			ackedSeq, ackedCycles = seqs[i], sum.Cycles
		}
		window, seqs = window[:0], seqs[:0]
		return ok
	}
	for seq := uint64(1); ; seq++ {
		select {
		case <-drained:
		default:
		}
		if nc.Draining() {
			break
		}
		sp, err := ns.SendStepSeq(seq, words(uint32(seq), batchWords))
		if err != nil {
			break
		}
		window = append(window, sp)
		seqs = append(seqs, seq)
		if len(window) == 4 && !flushWindow() {
			break
		}
	}
	flushWindow()
	if ackedSeq == 0 {
		t.Fatal("no batches were acknowledged before the drain")
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drain notice never arrived")
	}

	// New NBWP connections must be refused while draining.
	if _, err := client.DialNBWP(ctx, addr); err == nil {
		t.Fatal("dial succeeded on a draining server")
	}

	// The drained server still answers in-flight sessions: checkpoint the
	// acked frontier, then say goodbye.
	ck, err := ns.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Seq != ackedSeq {
		t.Fatalf("checkpointed seq = %d, want acked frontier %d", ck.Seq, ackedSeq)
	}
	if ck.Cycles != ackedCycles {
		t.Fatalf("checkpointed cycles = %d, want acked %d", ck.Cycles, ackedCycles)
	}
	if err := nc.Goodbye(ctx); err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.ShutdownNBWP(sctx); err != nil {
		t.Fatalf("ShutdownNBWP: %v", err)
	}
}

// TestConcurrentNBWPSessions is the NBWP twin of the HTTP 64-session
// soak: 8 connections × 8 slots, each pipelining sequenced batches with
// streamed samples, exercised under -race in CI.
func TestConcurrentNBWPSessions(t *testing.T) {
	_, _, addr := newNBWPService(t, server.Config{})
	ctx := context.Background()
	const conns = 8
	const slotsPerConn = 8
	const batches = 6
	const batchWords = 256

	var wg sync.WaitGroup
	errc := make(chan error, conns*slotsPerConn)
	for ci := 0; ci < conns; ci++ {
		nc := dialNBWP(t, addr)
		for si := 0; si < slotsPerConn; si++ {
			wg.Add(1)
			go func(nc *client.NBWPConn, seed uint32) {
				defer wg.Done()
				var samples atomic.Uint64
				ns, err := nc.Open(ctx, client.SessionConfig{
					Node: "90nm", IntervalCycles: 256, DropSamples: true,
				}, func(client.Sample) { samples.Add(1) })
				if err != nil {
					errc <- err
					return
				}
				pend := make([]*client.StepPending, 0, batches)
				for seq := uint64(1); seq <= batches; seq++ {
					sp, err := ns.SendStepSeq(seq, words(seed+uint32(seq), batchWords))
					if err != nil {
						errc <- err
						return
					}
					pend = append(pend, sp)
				}
				var total uint64
				for _, sp := range pend {
					sum, err := sp.Wait(ctx)
					if err != nil {
						errc <- err
						return
					}
					total += sum.Words
				}
				if total != batches*batchWords {
					errc <- errors.New("word count mismatch")
					return
				}
				res, err := ns.Result(ctx, true)
				if err != nil {
					errc <- err
					return
				}
				if res.Cycles != batches*batchWords || math.IsNaN(res.Total.TotalJ) {
					errc <- errors.New("bad result")
					return
				}
				errc <- ns.Close(ctx)
			}(nc, uint32(ci*1000+si))
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}
