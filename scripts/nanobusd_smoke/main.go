// Command nanobusd_smoke is the end-to-end gate for the service: it execs
// a built nanobusd binary on an ephemeral port (HTTP and NBWP), drives
// the same session schedule through the transport-agnostic client.Session
// interface over both transports, requires each result to be bit-for-bit
// identical to an in-process library run — including the SAMPLE frames
// streamed live over NBWP — then SIGTERMs the daemon and requires a clean
// drain (exit 0, "drained cleanly" on stdout).
//
// A third leg drives a 4-bus interleaved session over both transports —
// including a checkpoint-envelope download and an inline resurrect-and-
// replay, which must work even against this store-less daemon — and
// requires every figure, per-bus blocks included, to be bit-identical
// across HTTP and NBWP and after the resurrect-and-replay.
//
//	go build -o /tmp/nanobusd ./cmd/nanobusd
//	go run ./scripts/nanobusd_smoke -bin /tmp/nanobusd
package main

import (
	"context"
	"fmt"
	"time"

	"nanobus/client"
	"nanobus/internal/e2e"
)

func main() { e2e.Main("nanobusd_smoke", 60*time.Second, run) }

func run(ctx context.Context, bin string) error {
	ref, err := e2e.Reference(ctx, cfg, []client.StepLine{{Words: schedule(), Idle: nIdle}})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	d, err := e2e.Start(bin, []string{"-addr", "127.0.0.1:0", "-nbwp-addr", "127.0.0.1:0"}, nil)
	if err != nil {
		return err
	}
	defer d.Kill()
	if err := driveSession(ctx, d.URL(), ref); err != nil {
		return err
	}
	if err := driveSessionNBWP(ctx, d.NBWPAddr, ref); err != nil {
		return err
	}
	if err := driveMulti(ctx, d.URL(), d.NBWPAddr); err != nil {
		return err
	}
	return d.Drain(ctx)
}

const (
	nWords = 1000
	nIdle  = 500
)

// cfg is the scalar session every leg opens and the library reference
// mirrors.
var cfg = client.SessionConfig{Node: "90nm", Encoding: "BI", IntervalCycles: 256}

// schedule builds the deterministic word stream both transports and the
// library reference all run.
func schedule() []uint32 {
	data := make([]uint32, nWords)
	x := uint32(42)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = x
	}
	return data
}

// runSchedule drives the shared schedule through one session handle via
// the transport-agnostic interface and requires the result to be
// bit-identical to the library reference. Both wire protocols go through
// this exact code path; anything transport-specific stays in the legs.
func runSchedule(ctx context.Context, sess client.Session, ref *client.Result) (*client.Result, error) {
	if _, err := sess.StepBinary(ctx, schedule()); err != nil {
		return nil, fmt.Errorf("step: %w", err)
	}
	if _, err := sess.StepIdle(ctx, nIdle); err != nil {
		return nil, fmt.Errorf("idle: %w", err)
	}
	res, err := sess.Result(ctx, true)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if err := sess.Close(ctx); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if err := e2e.SameResult(ref, res); err != nil {
		return nil, err
	}
	return res, nil
}

// driveSession runs one schedule over the HTTP transport.
func driveSession(ctx context.Context, baseURL string, ref *client.Result) error {
	c := client.New(baseURL)
	if err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	sess, err := c.OpenSession(ctx, cfg)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	res, err := runSchedule(ctx, sess, ref)
	if err != nil {
		return err
	}
	fmt.Printf("nanobusd_smoke: http: %d words + %d idle cycles bit-identical across %d samples (total %.4g J)\n",
		nWords, nIdle, len(res.Samples), res.Total.TotalJ)
	return nil
}

// driveSessionNBWP runs the same schedule over the binary protocol. The
// session streams its samples live — a transport-specific extra outside
// the Session interface — but the schedule itself runs through the same
// runSchedule path as HTTP, and the streamed SAMPLE frames must carry the
// same IEEE-754 bit patterns as the result document.
func driveSessionNBWP(ctx context.Context, addr string, ref *client.Result) error {
	res, streamed, err := e2e.StreamNBWP(ctx, addr, cfg, func(sess client.Session) (*client.Result, error) {
		return runSchedule(ctx, sess, ref)
	})
	if err != nil {
		return fmt.Errorf("nbwp: %w", err)
	}
	if err := e2e.SameStream(res, streamed); err != nil {
		return fmt.Errorf("nbwp: %w", err)
	}
	fmt.Printf("nanobusd_smoke: nbwp: %d words + %d idle cycles bit-identical; %d/%d samples streamed live (total %.4g J)\n",
		nWords, nIdle, len(streamed), len(res.Samples), res.Total.TotalJ)
	return nil
}

const (
	mBuses    = 4
	mHeadRows = 600
	mTailRows = 400
	mIdle     = 300
)

// multiSlab builds a deterministic cycle-major interleaved slab: one LCG
// stream per bus, transposed by PackInterleaved.
func multiSlab(seed uint32, rows int) ([]uint32, error) {
	cols := make([][]uint32, mBuses)
	for k := range cols {
		col := make([]uint32, rows)
		x := seed + uint32(k)*2654435761
		for i := range col {
			x = x*1664525 + 1013904223
			col[i] = x
		}
		cols[k] = col
	}
	return client.PackInterleaved(nil, cols...)
}

// runMultiSchedule drives the 4-bus schedule through one transport:
// head slab, checkpoint-envelope download, tail slab plus idle, result —
// then resurrects the closed session from the envelope on the same
// transport, replays the tail, and requires bit-identical figures. The
// daemon runs without -checkpoint-dir, so this also pins the store-less
// ?download=1 / inline-resurrect path.
func runMultiSchedule(ctx context.Context, tr client.Transport, head, tail []uint32) (*client.Result, error) {
	mcfg := cfg
	mcfg.Buses = mBuses
	sess, err := tr.OpenSession(ctx, mcfg)
	if err != nil {
		return nil, fmt.Errorf("open multi: %w", err)
	}
	sum, err := sess.StepBinary(ctx, head)
	if err != nil {
		return nil, fmt.Errorf("multi head: %w", err)
	}
	if sum.Cycles != mHeadRows {
		return nil, fmt.Errorf("multi head: %d cycles after %d interleaved rows", sum.Cycles, mHeadRows)
	}
	env, err := sess.CheckpointDownload(ctx)
	if err != nil {
		return nil, fmt.Errorf("multi checkpoint download: %w", err)
	}
	if _, err := sess.StepBinary(ctx, tail); err != nil {
		return nil, fmt.Errorf("multi tail: %w", err)
	}
	if _, err := sess.StepIdle(ctx, mIdle); err != nil {
		return nil, fmt.Errorf("multi idle: %w", err)
	}
	ref, err := sess.Result(ctx, true)
	if err != nil {
		return nil, fmt.Errorf("multi result: %w", err)
	}
	if len(ref.PerBus) != mBuses {
		return nil, fmt.Errorf("multi result: %d per-bus blocks, want %d", len(ref.PerBus), mBuses)
	}
	if err := sess.Close(ctx); err != nil {
		return nil, fmt.Errorf("multi close: %w", err)
	}

	res2, resp, err := tr.Resurrect(ctx, sess.ID(), env)
	if err != nil {
		return nil, fmt.Errorf("multi resurrect: %w", err)
	}
	if resp.Cycles != mHeadRows {
		return nil, fmt.Errorf("multi resurrect landed on cycle %d, want %d", resp.Cycles, mHeadRows)
	}
	if _, err := res2.StepBinary(ctx, tail); err != nil {
		return nil, fmt.Errorf("multi replay tail: %w", err)
	}
	if _, err := res2.StepIdle(ctx, mIdle); err != nil {
		return nil, fmt.Errorf("multi replay idle: %w", err)
	}
	replay, err := res2.Result(ctx, true)
	if err != nil {
		return nil, fmt.Errorf("multi replay result: %w", err)
	}
	if err := res2.Close(ctx); err != nil {
		return nil, fmt.Errorf("multi replay close: %w", err)
	}
	if err := e2e.SameResult(ref, replay); err != nil {
		return nil, fmt.Errorf("resurrect replay: %w", err)
	}
	return ref, nil
}

// driveMulti runs the 4-bus leg on each transport and requires the two
// results to be bit-identical to each other.
func driveMulti(ctx context.Context, baseURL, nbwpAddr string) error {
	head, err := multiSlab(7, mHeadRows)
	if err != nil {
		return err
	}
	tail, err := multiSlab(1009, mTailRows)
	if err != nil {
		return err
	}
	httpRes, err := runMultiSchedule(ctx, client.New(baseURL), head, tail)
	if err != nil {
		return fmt.Errorf("multi http: %w", err)
	}
	nc, err := client.DialNBWP(ctx, nbwpAddr)
	if err != nil {
		return fmt.Errorf("multi dial nbwp: %w", err)
	}
	defer func() {
		//nanolint:ignore droppederr best-effort close; the run already reported its outcome
		_ = nc.Close()
	}()
	nbwpRes, err := runMultiSchedule(ctx, nc, head, tail)
	if err != nil {
		return fmt.Errorf("multi nbwp: %w", err)
	}
	if err := nc.Goodbye(ctx); err != nil {
		return fmt.Errorf("multi nbwp goodbye: %w", err)
	}
	if err := e2e.SameResult(httpRes, nbwpRes); err != nil {
		return fmt.Errorf("multi http vs nbwp: %w", err)
	}
	fmt.Printf("nanobusd_smoke: multi: %d buses x %d rows + %d idle bit-identical across transports, checkpoint replay bit-identical (total %.4g J, hottest bus %d)\n",
		mBuses, mHeadRows+mTailRows, mIdle, httpRes.Total.TotalJ, httpRes.MaxBus)
	return nil
}
