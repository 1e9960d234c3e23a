// Command cluster_chaos is the acceptance gate for cluster mode: it boots
// a three-node nanobusd cluster (static membership, per-node checkpoint
// directories, replication factor 2), opens 64 sessions through the
// client Router, streams sequenced batches at all of them concurrently,
// then kill -9s the node hosting the most sessions while STEP traffic is
// in flight. Every orphaned session must fail over — Recover resurrects
// it from a replicated checkpoint on a survivor, the driver replays the
// tail, duplicates are absorbed — and every session's final energy and
// thermal figures must be bit-for-bit identical to an uninterrupted
// in-process library run of the same schedule. The two survivors must
// then drain cleanly.
//
//	go build -o /tmp/nanobusd ./cmd/nanobusd
//	go run ./scripts/cluster_chaos -bin /tmp/nanobusd
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nanobus/client"
	"nanobus/internal/e2e"
)

const (
	batchWords = 150
	nBatches   = 12
	ckptEvery  = "300" // cycles: one auto-checkpoint every two batches
	nNodes     = 3
)

// cfg is every session's configuration; the library reference mirrors it.
var cfg = client.SessionConfig{Node: "90nm", Encoding: "BI", IntervalCycles: 100}

func main() {
	sessions := flag.Int("sessions", 64, "concurrent sessions across the cluster")
	e2e.Main("cluster_chaos", 150*time.Second, func(ctx context.Context, bin string) error {
		return run(ctx, bin, *sessions)
	})
}

// batch regenerates session sid's word batch for sequence number seq from
// (sid, seq) alone — the resume contract: any batch past the last
// checkpoint can be rebuilt on demand and replayed after a failover.
func batch(sid int, seq uint64) []uint32 {
	words := make([]uint32, batchWords)
	x := uint32(sid)*0x9E3779B9 + uint32(seq)*2654435761 + 1
	for i := range words {
		x = x*1664525 + 1013904223
		words[i] = x
	}
	return words
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them. The tiny race between release and the daemon's bind is accepted:
// the members list must name every node's address before any node starts.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		if err := ln.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// driver streams one session's schedule through a RoutedSession,
// recovering from node death by resurrecting on a survivor and replaying.
type driver struct {
	sid        int
	rs         *client.RoutedSession
	openedOn   string
	recoveries int
}

// steps sends sequenced batches first..last (pacing each ack by pace, so
// the kill window has traffic in flight); any failure triggers a Recover
// (resurrect from the replicated checkpoint store on whichever candidate
// can) and a replay from the restored frontier. A rewind may land below
// first; replays at or below the frontier come back Duplicate and are
// never double-counted.
func (d *driver) steps(ctx context.Context, first, last uint64, pace time.Duration) error {
	for seq := first; seq <= last; {
		_, err := d.rs.StepBinarySeq(ctx, seq, batch(d.sid, seq))
		if err == nil {
			seq++
			if pace > 0 {
				time.Sleep(pace)
			}
			continue
		}
		if ctx.Err() != nil {
			return err
		}
		res, rerr := d.recover(ctx, fmt.Sprintf("seq %d: %v", seq, err))
		if rerr != nil {
			return rerr
		}
		seq = res.Seq + 1
	}
	return nil
}

// run drives the whole schedule: stream to seq 5, check in at the
// barrier, then race the tail against the kill and fetch the result.
func (d *driver) run(ctx context.Context, ready *sync.WaitGroup, goCh <-chan struct{}) (*client.Result, error) {
	err := d.steps(ctx, 1, 5, 0)
	ready.Done()
	if err != nil {
		return nil, fmt.Errorf("session %d warmup: %w", d.sid, err)
	}
	<-goCh
	if err := d.steps(ctx, 6, nBatches, 10*time.Millisecond); err != nil {
		return nil, fmt.Errorf("session %d tail: %w", d.sid, err)
	}
	return d.finish(ctx)
}

// recover fails the session over with a bounded number of attempts. A
// short backoff covers the window where the killed process's ports are
// still settling.
func (d *driver) recover(ctx context.Context, cause string) (client.RestoreResponse, error) {
	for {
		if d.recoveries++; d.recoveries > 8 {
			return client.RestoreResponse{}, fmt.Errorf("session %d: giving up after %d recoveries (%s)",
				d.sid, d.recoveries-1, cause)
		}
		res, err := d.rs.Recover(ctx)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return client.RestoreResponse{}, err
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// finish fetches the final result, recovering and replaying if the node
// died between the last ack and the result fetch.
func (d *driver) finish(ctx context.Context) (*client.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := d.rs.Result(ctx, true)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil || attempt >= 3 {
			return nil, fmt.Errorf("session %d result: %w", d.sid, err)
		}
		rr, rerr := d.recover(ctx, fmt.Sprintf("result: %v", err))
		if rerr != nil {
			return nil, rerr
		}
		if serr := d.steps(ctx, rr.Seq+1, nBatches, 0); serr != nil {
			return nil, serr
		}
	}
}

func run(ctx context.Context, bin string, sessions int) error {
	root, err := os.MkdirTemp("", "nanobus-cluster-chaos-*")
	if err != nil {
		return err
	}
	defer func() {
		//nanolint:ignore droppederr best-effort temp-dir cleanup on exit
		_ = os.RemoveAll(root)
	}()

	// Boot the three-node cluster on pre-reserved ports (the membership
	// list has to name every address before the first node starts).
	addrs, err := freeAddrs(2 * nNodes)
	if err != nil {
		return err
	}
	names := make([]string, nNodes)
	var specs []string
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
		specs = append(specs, fmt.Sprintf("%s=http://%s+%s", names[i], addrs[2*i], addrs[2*i+1]))
	}
	spec := strings.Join(specs, ",")
	nodes := map[string]*e2e.Daemon{}
	for i, name := range names {
		d, err := e2e.Start(bin, []string{
			"-addr", addrs[2*i], "-nbwp-addr", addrs[2*i+1],
			"-checkpoint-dir", filepath.Join(root, name), "-checkpoint-every", ckptEvery,
			"-cluster-self", name, "-cluster-members", spec, "-cluster-replicas", "2"}, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		defer d.Kill()
		nodes[name] = d
	}
	fmt.Printf("cluster_chaos: 3 nodes up (%s)\n", spec)

	router, err := client.NewRouter(ctx, []string{nodes[names[0]].URL()}, client.WithRouterNBWP())
	if err != nil {
		return fmt.Errorf("router bootstrap: %w", err)
	}
	defer func() {
		//nanolint:ignore droppederr best-effort close; the run already reported its outcome
		_ = router.Close()
	}()

	// Open every session up front so the victim — the node hosting the
	// most sessions — can be picked before traffic starts. Nodes mint ids
	// they own, so placement is decided by the ring at create time.
	drivers := make([]*driver, sessions)
	hosted := map[string]int{}
	for i := range drivers {
		rs, err := router.Open(ctx, cfg)
		if err != nil {
			return fmt.Errorf("open session %d: %w", i+1, err)
		}
		drivers[i] = &driver{sid: i + 1, rs: rs, openedOn: rs.Node()}
		hosted[rs.Node()]++
	}
	victim := names[0]
	for _, name := range names {
		if hosted[name] > hosted[victim] {
			victim = name
		}
	}
	if hosted[victim] == 0 {
		return fmt.Errorf("no node hosts any sessions (placement: %v)", hosted)
	}
	fmt.Printf("cluster_chaos: %d sessions placed %v; victim is %s with %d\n",
		sessions, hosted, victim, hosted[victim])

	// Phase 1: every session streams to seq 5 (so at least two
	// auto-checkpoints per session have been taken and replicated), then
	// all drivers are released into the paced tail together and the
	// victim is SIGKILLed while their STEP traffic is in flight.
	var (
		wg, ready sync.WaitGroup
		goCh      = make(chan struct{})
	)
	errs := make([]error, len(drivers))
	finals := make([]*client.Result, len(drivers))
	ready.Add(len(drivers))
	wg.Add(len(drivers))
	for i, d := range drivers {
		go func(i int, d *driver) {
			defer wg.Done()
			finals[i], errs[i] = d.run(ctx, &ready, goCh)
		}(i, d)
	}
	ready.Wait()
	close(goCh)
	time.Sleep(30 * time.Millisecond)
	fmt.Printf("cluster_chaos: kill -9 %s (pid %d) with all %d sessions streaming\n",
		victim, nodes[victim].Pid(), sessions)
	nodes[victim].Kill()
	wg.Wait()

	// Every session — including every one orphaned by the kill — must
	// have completed its schedule and must match the uninterrupted
	// library run bit for bit.
	recovered := 0
	for i, d := range drivers {
		if errs[i] != nil {
			return errs[i]
		}
		script := make([]client.StepLine, nBatches)
		for j := range script {
			script[j].Words = batch(d.sid, uint64(j+1))
		}
		ref, err := e2e.Reference(ctx, cfg, script)
		if err != nil {
			return fmt.Errorf("reference run %d: %w", d.sid, err)
		}
		if err := e2e.SameResult(ref, finals[i]); err != nil {
			return fmt.Errorf("session %d after failover: %w", d.sid, err)
		}
		if d.recoveries > 0 {
			recovered++
		}
		if d.openedOn == victim {
			if d.recoveries == 0 {
				return fmt.Errorf("session %d was hosted on the victim but never failed over", d.sid)
			}
			if d.rs.Node() == victim {
				return fmt.Errorf("session %d still routed to the dead node %s", d.sid, victim)
			}
		}
		if err := d.rs.Close(ctx); err != nil {
			return fmt.Errorf("close session %d: %w", d.sid, err)
		}
	}
	if recovered < hosted[victim] {
		return fmt.Errorf("only %d sessions recovered; the victim hosted %d", recovered, hosted[victim])
	}
	fmt.Printf("cluster_chaos: all %d sessions bit-identical; %d failed over from %s to survivors\n",
		sessions, recovered, victim)

	// The survivors must still drain cleanly — after the Router's pooled
	// NBWP connections are gone, since the drain waits them out.
	if err := router.Close(); err != nil {
		return fmt.Errorf("router close: %w", err)
	}
	for _, name := range names {
		if name == victim {
			continue
		}
		if err := nodes[name].Drain(ctx); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
