// Command chaos is the durability gate for nanobusd: it proves that a
// kill -9 mid-stream loses no accounting. It execs a built nanobusd with
// a filesystem checkpoint store and periodic auto-checkpoints, streams
// sequenced batches at it, SIGKILLs the daemon, restarts a second one on
// the same checkpoint directory — this time with an ingest failpoint
// armed through NANOBUS_FAILPOINTS — resurrects the session, replays
// every batch past the last checkpoint, and requires the final energy
// and thermal figures to be bit-for-bit identical to an uninterrupted
// in-process library run of the same schedule. The scenario runs twice:
// once over the HTTP surface and once over the NBWP binary protocol,
// where the kill lands mid-pipeline with unacknowledged STEP frames in
// flight and recovery goes through a RESTORE frame on a fresh
// connection. The whole recovery path — resurrect, duplicate absorption,
// replay through an injected fault, final comparison — is written once
// against the transport-agnostic client.Transport/client.Session
// interface and shared by both legs.
//
//	go build -o /tmp/nanobusd ./cmd/nanobusd
//	go run ./scripts/chaos -bin /tmp/nanobusd
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nanobus/client"
	"nanobus/internal/e2e"
)

const (
	batchWords = 150
	nBatches   = 12
)

// cfg is the session both legs open and the library reference mirrors.
var cfg = client.SessionConfig{Node: "90nm", Encoding: "BI", IntervalCycles: 100}

func main() { e2e.Main("chaos", 120*time.Second, run) }

// batch regenerates the word batch for a sequence number from the number
// alone. This is the resume contract: a client that can rebuild batch N
// on demand can replay everything past the last checkpoint, so an ack
// lost to a kill -9 costs retransmission, never correctness.
func batch(seq uint64) []uint32 {
	words := make([]uint32, batchWords)
	x := uint32(seq)*2654435761 + 1
	for i := range words {
		x = x*1664525 + 1013904223
		words[i] = x
	}
	return words
}

// startDaemon execs bin on the shared checkpoint directory with periodic
// auto-checkpoints (one every two batches); env arms failpoints.
func startDaemon(bin, ckptDir string, env []string) (*e2e.Daemon, error) {
	return e2e.Start(bin, []string{"-addr", "127.0.0.1:0", "-nbwp-addr", "127.0.0.1:0",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "300"}, env)
}

// replay sends batches from..nBatches through the transport-agnostic
// Session interface, recovering from any mid-stream failure (injected
// ingest faults, seq conflicts) by restoring the last checkpoint and
// resuming from its acknowledged sequence number. It returns how many
// recoveries were needed.
func replay(ctx context.Context, sess client.Session, from uint64) (int, error) {
	recoveries := 0
	for seq := from; seq <= nBatches; {
		sum, err := sess.StepBinarySeq(ctx, seq, batch(seq))
		if err == nil {
			if sum.Duplicate {
				fmt.Printf("chaos: seq %d absorbed as duplicate\n", seq)
			}
			seq++
			continue
		}
		if recoveries++; recoveries > 5 {
			return recoveries, fmt.Errorf("giving up after %d recoveries; last: %w", recoveries-1, err)
		}
		fmt.Printf("chaos: seq %d failed (%v); restoring\n", seq, err)
		res, rerr := sess.Restore(ctx)
		if rerr != nil {
			return recoveries, fmt.Errorf("restore after failed seq %d: %w", seq, rerr)
		}
		fmt.Printf("chaos: rewound to seq %d (cycle %d)\n", res.Seq, res.Cycles)
		seq = res.Seq + 1
	}
	return recoveries, nil
}

// resume is the shared recovery half of both legs: resurrect id from the
// checkpoint store through tr, require a rewind to a checkpointed
// frontier, absorb a duplicate of that frontier, replay the tail through
// the armed ingest failpoint, and require the final figures to match the
// uninterrupted library run bit for bit. It returns the live handle so
// the caller can close it over its own transport.
func resume(ctx context.Context, tr client.Transport, ref *client.Result, id, label string) (client.Session, error) {
	sess, res, err := tr.Resurrect(ctx, id, nil)
	if err != nil {
		return nil, fmt.Errorf("resurrect: %w", err)
	}
	if !res.Resurrected {
		return nil, fmt.Errorf("restore did not resurrect: %+v", res)
	}
	fmt.Printf("chaos: %s: resurrected %s at seq %d (cycle %d)\n", label, id, res.Seq, res.Cycles)
	if res.Seq >= 7 {
		return nil, fmt.Errorf("checkpoint claims seq %d, but only 6 could have been checkpointed", res.Seq)
	}
	// A duplicate of the last checkpointed batch must be absorbed, not
	// double-counted.
	dup, err := sess.StepBinarySeq(ctx, res.Seq, batch(res.Seq))
	if err != nil || !dup.Duplicate {
		return nil, fmt.Errorf("duplicate of seq %d: sum=%+v err=%v", res.Seq, dup, err)
	}
	recoveries, err := replay(ctx, sess, res.Seq+1)
	if err != nil {
		return nil, err
	}
	if recoveries == 0 {
		return nil, fmt.Errorf("ingest failpoint never fired: the %s leg did not exercise the recovery path", label)
	}
	final, err := sess.Result(ctx, true)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if err := e2e.SameResult(ref, final); err != nil {
		return nil, fmt.Errorf("after chaos: %w", err)
	}
	fmt.Printf("chaos: %s: %d batches survived kill -9 + injected ingest fault; %d samples bit-identical (total %.4g J)\n",
		label, nBatches, len(final.Samples), final.Total.TotalJ)
	return sess, nil
}

func run(ctx context.Context, bin string) error {
	script := make([]client.StepLine, nBatches)
	for i := range script {
		script[i].Words = batch(uint64(i + 1))
	}
	ref, err := e2e.Reference(ctx, cfg, script)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	root, err := os.MkdirTemp("", "nanobus-chaos-*")
	if err != nil {
		return err
	}
	defer func() {
		//nanolint:ignore droppederr best-effort temp-dir cleanup on exit
		_ = os.RemoveAll(root)
	}()
	// Each leg's two daemons share one checkpoint directory, which the
	// first daemon creates.
	if err := httpLeg(ctx, bin, filepath.Join(root, "http"), ref); err != nil {
		return fmt.Errorf("http leg: %w", err)
	}
	if err := nbwpLeg(ctx, bin, filepath.Join(root, "nbwp"), ref); err != nil {
		return fmt.Errorf("nbwp leg: %w", err)
	}
	return nil
}

// failpoint arms the second daemon's ingest path so one replayed batch
// dies mid-request and the client must restore a second time.
var failpoint = []string{"NANOBUS_FAILPOINTS=server.ingest.decode=error,nth=3"}

// httpLeg is the original chaos scenario over the HTTP surface.
func httpLeg(ctx context.Context, bin, ckptDir string, ref *client.Result) error {
	// Daemon #1: stream seq 1..7 (auto-checkpoints land every 2 batches
	// at 150 words each), then die without warning. Seq 7 is past the
	// last checkpoint: its ack will be lost and the batch replayed.
	d1, err := startDaemon(bin, ckptDir, nil)
	if err != nil {
		return err
	}
	defer d1.Kill()
	retry := client.WithRetry(client.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond})
	c1 := client.New(d1.URL(), retry)
	if err := c1.Healthz(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	sess1, err := c1.OpenSession(ctx, cfg)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	for seq := uint64(1); seq <= 7; seq++ {
		if _, err := sess1.StepBinarySeq(ctx, seq, batch(seq)); err != nil {
			return fmt.Errorf("seq %d on daemon 1: %w", seq, err)
		}
	}
	fmt.Printf("chaos: killing nanobusd (pid %d) with 7/%d batches acknowledged\n", d1.Pid(), nBatches)
	d1.Kill()

	// Daemon #2 shares only the checkpoint directory, and runs with the
	// ingest failpoint armed.
	d2, err := startDaemon(bin, ckptDir, failpoint)
	if err != nil {
		return err
	}
	defer d2.Kill()
	sess2, err := resume(ctx, client.New(d2.URL(), retry), ref, sess1.ID(), "http")
	if err != nil {
		return err
	}
	if err := sess2.Close(ctx); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return d2.Drain(ctx)
}

// nbwpLeg reruns the crash scenario over the binary protocol: a window
// of pipelined sequenced STEP frames is in flight when the daemon is
// SIGKILLed, so the tail acks are lost with the connection. A second
// daemon (ingest failpoint armed) resurrects the session from the
// checkpoint store via a RESTORE frame on a fresh connection, absorbs a
// duplicate of the checkpointed frontier, replays the rest through the
// injected fault, and must land on the same bits as the uninterrupted
// library run.
func nbwpLeg(ctx context.Context, bin, ckptDir string, ref *client.Result) error {
	d1, err := startDaemon(bin, ckptDir, nil)
	if err != nil {
		return err
	}
	defer d1.Kill()
	nc1, err := client.DialNBWP(ctx, d1.NBWPAddr)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	opened, err := nc1.OpenSession(ctx, cfg)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	// Pipelining is the optional transport capability, reached through
	// the capability assertion rather than the concrete type.
	sess1, ok := opened.(client.PipelinedSession)
	if !ok {
		return fmt.Errorf("nbwp session does not pipeline (%T)", opened)
	}
	// Pipeline seq 1..7 without waiting, then settle only the first
	// five acks before the kill: the tail of the pipeline is in flight
	// when the process dies, exactly the window a crash would eat.
	pend := make([]*client.StepPending, 0, 7)
	for seq := uint64(1); seq <= 7; seq++ {
		sp, serr := sess1.SendStepSeq(seq, batch(seq))
		if serr != nil {
			return fmt.Errorf("send seq %d: %w", seq, serr)
		}
		pend = append(pend, sp)
	}
	for i := 0; i < 5; i++ {
		if _, werr := pend[i].Wait(ctx); werr != nil {
			return fmt.Errorf("ack seq %d: %w", i+1, werr)
		}
	}
	fmt.Printf("chaos: nbwp: killing nanobusd (pid %d) with 5/7 pipelined batches acked\n", d1.Pid())
	d1.Kill()
	for _, sp := range pend[5:] {
		//nanolint:ignore droppederr the lost tail acks are the scenario; only the FIFO must drain
		_, _ = sp.Wait(ctx)
	}
	//nanolint:ignore droppederr the connection died with the daemon
	_ = nc1.Close()

	d2, err := startDaemon(bin, ckptDir, failpoint)
	if err != nil {
		return err
	}
	defer d2.Kill()
	nc2, err := client.DialNBWP(ctx, d2.NBWPAddr)
	if err != nil {
		return fmt.Errorf("redial: %w", err)
	}
	defer func() {
		//nanolint:ignore droppederr best-effort close; the leg already reported its outcome
		_ = nc2.Close()
	}()
	sess2, err := resume(ctx, nc2, ref, sess1.ID(), "nbwp")
	if err != nil {
		return err
	}
	if err := sess2.Close(ctx); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := nc2.Goodbye(ctx); err != nil {
		return fmt.Errorf("goodbye: %w", err)
	}
	return d2.Drain(ctx)
}
