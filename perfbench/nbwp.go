package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"nanobus/client"
	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/itrs"
	"nanobus/internal/server"
	"nanobus/internal/thermal"
	"nanobus/internal/workload"
)

const (
	// nbwpSessions is one session per benchmark, so every seed streams
	// the same traffic mix and only the assignment and offsets change.
	nbwpSessions   = 8
	nbwpTraceWords = 65536
	nbwpFrameWords = 4096
	// nbwpWindow frames are in flight on the connection at once; the
	// sender waits for the oldest ack before sending more (closed loop).
	nbwpWindow = 8
	// nbwpInterval closes a sampling interval every second frame, so
	// SAMPLE frames flow back interleaved with the acks.
	nbwpInterval = 8192
	// nbwpSetupReps daemon set-ups per process; each takes milliseconds,
	// so the median over the run's many keeps setup_s steady.
	nbwpSetupReps = 4
	// nbwpSettle bounds the wait for /metrics counters to catch up with
	// frames the client has already seen acknowledged.
	nbwpSettle = 2 * time.Second
	// nbwpProcs runs client and daemon on one P: the loop then measures
	// the whole path's CPU cost per word. With two Ps on a 2-core host
	// its throughput hung on cross-CPU goroutine hand-offs and moved 25%
	// between runs of the same code.
	nbwpProcs = 1
)

var nbwpNode = itrs.N130

// nbwpConfig is every session's configuration: scalar BI with a short
// sampling interval. Samples reach the client as SAMPLE frames and are
// not retained, so memory stays flat however long a run lasts.
func nbwpConfig() client.SessionConfig {
	return client.SessionConfig{Node: nbwpNode.Name, Encoding: "BI", IntervalCycles: nbwpInterval, DropSamples: true}
}

// nbwpReference builds the library simulator a session must match, with
// its samples folded into fp.
func nbwpReference(fp *sampleFingerprint) (*core.Simulator, error) {
	enc, err := encoding.New("BI")
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{Node: nbwpNode, Length: core.DefaultLength, Encoder: enc,
		CouplingDepth: -1, IntervalCycles: nbwpInterval, DropSamples: true,
		OnSample: func(s core.Sample) {
			fp.add(s.EndCycle, s.MaxWire, s.Energy, s.Self, s.CoupAdj, s.CoupNonAdj, s.AvgTemp, s.MaxTemp)
		}})
}

// sampleFingerprint folds a session's samples, in order and bit for bit,
// into a count and an FNV-1a hash, so streamed samples can be compared
// with the library's without keeping them.
type sampleFingerprint struct {
	mu sync.Mutex
	n  uint64
	h  uint64
}

func (f *sampleFingerprint) add(endCycle uint64, maxWire int, vals ...float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n == 0 {
		f.h = 0xcbf29ce484222325
	}
	f.n++
	fold := func(x uint64) { f.h = (f.h ^ x) * 0x100000001b3 }
	fold(endCycle)
	fold(uint64(maxWire))
	for _, v := range vals {
		fold(math.Float64bits(v))
	}
}

func (f *sampleFingerprint) get() (n, h uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n, f.h
}

// daemon is an in-process nanobusd serving NBWP on loopback, with one
// client connection and its sessions.
type daemon struct {
	srv       *server.Server
	serveDone chan error
	nc        *client.NBWPConn
	sess      []*client.NBWPSession
	// streamed fingerprints the SAMPLE frames of each session; the
	// connection's reader goroutine feeds them.
	streamed []sampleFingerprint
	// framesIn and framesOut tally the frames the client sent and the
	// acks it received; with the SAMPLE frames they are the figures the
	// server's /metrics counters must reach.
	framesIn, framesOut uint64
}

// startDaemon starts the server, dials it and opens the sessions.
func startDaemon(ctx context.Context, tr *tracer) (*daemon, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	d := &daemon{srv: server.New(server.Config{}), serveDone: make(chan error, 1),
		streamed: make([]sampleFingerprint, nbwpSessions)}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { d.serveDone <- d.srv.ServeNBWP(lis) }()
	if d.nc, err = client.DialNBWP(ctx, lis.Addr().String()); err != nil {
		return nil, errors.Join(err, d.stop(ctx))
	}
	// The dial's HELLO exchange is one frame each way.
	d.framesIn, d.framesOut = 1, 1
	for i := 0; i < nbwpSessions; i++ {
		i := i
		sp := tr.begin("core.new", root)
		s, err := d.nc.Open(ctx, nbwpConfig(), func(s client.Sample) {
			d.streamed[i].add(s.EndCycle, s.MaxWire, s.EnergyJ, s.SelfJ, s.CoupAdjJ, s.CoupNonAdjJ, s.AvgTempK, s.MaxTempK)
		})
		tr.end(sp)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("open session %d: %w", i, err), d.stop(ctx))
		}
		d.framesIn++
		d.framesOut++
		d.sess = append(d.sess, s)
	}
	return d, nil
}

// stop closes the sessions and the connection, drains the server and
// waits for its accept loop and connection goroutines to end.
func (d *daemon) stop(ctx context.Context) error {
	var errs []error
	for _, s := range d.sess {
		errs = append(errs, s.Close(ctx))
	}
	if d.nc != nil {
		errs = append(errs, d.nc.Close())
	}
	d.srv.Drain()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	errs = append(errs, d.srv.ShutdownNBWP(sctx))
	if err := <-d.serveDone; !errors.Is(err, net.ErrClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// scrape reads the daemon's /metrics counters through its handler once
// they account for every frame the client has seen: a counter can trail
// the ack it counts by a moment.
func (d *daemon) scrape() (map[string]uint64, error) {
	deadline := time.Now().Add(nbwpSettle)
	for {
		rec := httptest.NewRecorder()
		d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		m := map[string]uint64{}
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(name, "#") {
				continue
			}
			if v, err := strconv.ParseUint(val, 10, 64); err == nil {
				m[name] = v
			}
		}
		wantOut := d.framesOut
		for i := range d.streamed {
			n, _ := d.streamed[i].get()
			wantOut += n
		}
		if m["nanobusd_nbwp_frames_in_total"] == d.framesIn && m["nanobusd_nbwp_frames_out_total"] == wantOut {
			return m, nil
		}
		if time.Now().After(deadline) {
			return m, fmt.Errorf("metrics frames in/out %d/%d never reached the client's %d/%d",
				m["nanobusd_nbwp_frames_in_total"], m["nanobusd_nbwp_frames_out_total"], d.framesIn, wantOut)
		}
		time.Sleep(time.Millisecond)
	}
}

// nbwpTraffic captures each session's IA-bus trace. The seed assigns
// benchmarks to sessions and picks each window's offset.
func nbwpTraffic(seed uint64) ([][]uint32, []string, error) {
	names := workload.Names()
	// Seeded Fisher-Yates over the benchmark names.
	for i := len(names) - 1; i > 0; i-- {
		j := int(mix(seed, "nbwp/perm/"+strconv.Itoa(i)) % uint64(i+1))
		names[i], names[j] = names[j], names[i]
	}
	names = names[:nbwpSessions]
	traces := make([][]uint32, nbwpSessions)
	for i, name := range names {
		b, _ := workload.ByName(name)
		src, err := b.NewWarmSource(b.WarmupCycles + captureOffset(seed, "nbwp/"+name))
		if err != nil {
			return nil, nil, err
		}
		ws := make([]uint32, 0, nbwpTraceWords)
		for len(ws) < nbwpTraceWords {
			c, ok := src.Next()
			if !ok {
				return nil, nil, fmt.Errorf("%s trace ended", name)
			}
			if c.IValid {
				ws = append(ws, c.IAddr)
			}
		}
		traces[i] = ws
	}
	return traces, names, nil
}

// inflight is one sent frame awaiting its ack.
type inflight struct {
	sp      *client.StepPending
	session int
	t0      time.Time
	step    int
}

// nbwpPass streams every session's trace once in pipelined sequenced
// frames, round-robin across sessions, and drains the window at the end
// so each pass's counts are exact. It returns, per frame, the time since
// the previous ack (or the pass start), which in a closed loop add up to
// the pass, and the samples the acks report.
func nbwpPass(ctx context.Context, d *daemon, traces [][]uint32, pass int, out *outcome, tr *tracer) (ackS []float64, samples uint64, err error) {
	frames := nbwpTraceWords / nbwpFrameWords
	ps := tr.begin("nbwp.pass", 0)
	defer tr.end(ps)
	ackS = make([]float64, 0, frames*len(d.sess))
	var ring [nbwpWindow]inflight
	head, count := 0, 0
	last := time.Now()
	settle := func() error {
		f := ring[head]
		head = (head + 1) % nbwpWindow
		count--
		wsp := tr.begin("client.wait", f.step)
		sum, err := f.sp.Wait(ctx)
		tr.end(wsp)
		tr.end(f.step)
		now := time.Now()
		ackS = append(ackS, now.Sub(last).Seconds())
		last = now
		out.stepsMS = append(out.stepsMS, float64(now.Sub(f.t0))/float64(time.Millisecond))
		out.attempted++
		d.framesOut++
		if err != nil {
			return fmt.Errorf("session %d frame ack: %w", f.session, err)
		}
		if sum.Words != nbwpFrameWords {
			out.fail("session %d ack reports %d words, want %d", f.session, sum.Words, nbwpFrameWords)
		}
		samples += sum.Samples
		return nil
	}
	for f := 0; f < frames; f++ {
		for i, s := range d.sess {
			if count == nbwpWindow {
				if err := settle(); err != nil {
					return nil, 0, err
				}
			}
			words := traces[i][f*nbwpFrameWords : (f+1)*nbwpFrameWords]
			step := tr.begin("nbwp.step", ps)
			ssp := tr.begin("client.send", step)
			t0 := time.Now()
			sp, err := s.SendStepSeq(uint64(pass*frames+f+1), words)
			tr.end(ssp)
			if err != nil {
				out.attempted++
				return nil, 0, fmt.Errorf("session %d send: %w", i, err)
			}
			d.framesIn++
			ring[(head+count)%nbwpWindow] = inflight{sp: sp, session: i, t0: t0, step: step}
			count++
		}
	}
	for count > 0 {
		if err := settle(); err != nil {
			return nil, 0, err
		}
	}
	return ackS, samples, nil
}

func runNBWP(opts options, tr *tracer) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{counts: map[string]uint64{}, notes: map[string]any{}, procs: nbwpProcs,
		stepsPerPass: nbwpSessions * nbwpTraceWords / nbwpFrameWords}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nbwpProcs))
	traces, names, err := nbwpTraffic(opts.seed)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	dg := newDigest()
	for i, ws := range traces {
		dg.str(names[i])
		dg.words(ws)
	}
	out.inputs = dg.sum()
	out.notes["session_traces"] = names

	// Every set-up but the last is torn down at once; each uses its own
	// server, so the kept sessions start from fresh simulators just like
	// the library references they are checked against.
	d, setupS, err := repeatSetup(nbwpSetupReps, func() (*daemon, error) { return startDaemon(ctx, tr) },
		func(d *daemon) error { return d.stop(ctx) })
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	defer func() {
		if err := d.stop(ctx); err != nil {
			out.fail("daemon shutdown: %v", err)
		}
	}()

	passWords := uint64(nbwpSessions * nbwpTraceWords)
	out.passWords = passWords
	m0, err := d.scrape()
	if err != nil {
		return nil, err
	}
	measure(opts, tr, out, func(n int) ([]float64, error) {
		ackS, samples, err := nbwpPass(ctx, d, traces, n, out, tr)
		if err != nil || n > 0 {
			return ackS, err
		}
		m1, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out.counts["words"] = passWords
		out.counts["frames"] = passWords / nbwpFrameWords
		out.counts["samples"] = samples
		for _, k := range []string{"words_total", "samples_total", "nbwp_frames_in_total", "nbwp_frames_out_total"} {
			out.counts["server."+k] = m1["nanobusd_"+k] - m0["nanobusd_"+k]
		}
		out.check(out.counts["server.words_total"] == passWords,
			"server counted %d words in pass 0, want %d", out.counts["server.words_total"], passWords)
		out.check(out.counts["server.samples_total"] == samples,
			"server counted %d samples in pass 0, client saw %d", out.counts["server.samples_total"], samples)
		return ackS, nil
	})

	kernel, err := nbwpCheck(ctx, d, traces, out)
	if err != nil {
		return nil, err
	}
	if opts.trace {
		nbwpLayers(traces, out, tr, kernel)
	}
	return out, nil
}

// nbwpCheck replays every session's words through a library simulator
// in the same frames and order, and requires each session's Result and
// streamed samples to be bit-identical to it. It returns the kernel time
// per frame and fills the first pass's memo counts.
func nbwpCheck(ctx context.Context, d *daemon, traces [][]uint32, out *outcome) (time.Duration, error) {
	frames := nbwpTraceWords / nbwpFrameWords
	var kernel time.Duration
	var kernelFrames int
	for i, s := range d.sess {
		var fp sampleFingerprint
		ref, err := nbwpReference(&fp)
		if err != nil {
			return 0, err
		}
		for p := 0; p < out.passes; p++ {
			for f := 0; f < frames; f++ {
				t0 := time.Now()
				_, err := ref.StepBatch(ctx, traces[i][f*nbwpFrameWords:(f+1)*nbwpFrameWords])
				kernel += time.Since(t0)
				kernelFrames++
				if err != nil {
					return 0, err
				}
			}
			if p == 0 {
				ms := ref.MemoStats()
				out.counts["memo_hits"] += ms.Hits
				out.counts["memo_misses"] += ms.Misses
			}
		}
		if err := ref.Finish(); err != nil {
			return 0, err
		}
		res, err := s.Result(ctx, true)
		d.framesIn++
		d.framesOut++
		out.check(err == nil && sameResult(res, ref), "session %d result differs from the library simulator (err %v)", i, err)
		gotN, gotH := d.streamed[i].get()
		wantN, wantH := fp.get()
		out.check(gotN == wantN && gotH == wantH, "session %d streamed %d samples (fingerprint %x), the library closed %d (%x)",
			i, gotN, gotH, wantN, wantH)
	}
	out.notes["check_tolerance"] = "bit-identical (Float64bits)"
	if kernelFrames == 0 {
		return 0, nil
	}
	return kernel / time.Duration(kernelFrames), nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameResult compares a session result with the library simulator's
// state field by field, bit for bit.
func sameResult(res *client.Result, sim *core.Simulator) bool {
	tot := sim.TotalEnergy()
	maxT, maxW := sim.Network().MaxTemp()
	ms := sim.MemoStats()
	if res.Cycles != sim.Cycles() || res.Width != sim.Width() ||
		!sameBits(res.Total.TotalJ, tot.Total()) || !sameBits(res.Total.SelfJ, tot.Self) ||
		!sameBits(res.Total.CoupAdjJ, tot.CoupAdj) || !sameBits(res.Total.CoupNonAdjJ, tot.CoupNonAdj) ||
		!sameBits(res.AvgTempK, sim.Network().AvgTemp()) || !sameBits(res.MaxTempK, maxT) || res.MaxWire != maxW ||
		!sameSlice(res.TempsK, sim.Temps()) || res.Memo.Hits != ms.Hits || res.Memo.Misses != ms.Misses {
		return false
	}
	return len(res.Samples) == 0
}

// nbwpLayers splits a frame's time into client send, client wait and the
// rest, and the wait into the server's kernel (timed on the library
// simulators fed the same frames) and the server residual.
func nbwpLayers(traces [][]uint32, out *outcome, tr *tracer, kernel time.Duration) {
	L := zeroLayers()
	frames := float64(out.tracedPasses) * float64(out.counts["frames"])
	perFrame := func(d time.Duration) time.Duration { return time.Duration(float64(d) / frames) }
	send, wait := perFrame(tr.total("client.send")), perFrame(tr.total("client.wait"))
	wall := time.Duration(out.tracedS * 1e9 / frames)
	L["client.send_us"] = us(send)
	L["client.wait_us"] = us(wait)
	L["server.kernel_us"] = us(kernel)
	clientRec := reconcile("frame wall time", wall, "client.residual", map[string]time.Duration{"client.send": send, "client.wait": wait})
	serverRec := reconcile("client.wait", wait, "server.residual", map[string]time.Duration{"server.kernel": kernel})
	L["client.residual_us"] = clientRec.ResidualS * 1e6
	L["server.residual_us"] = serverRec.ResidualS * 1e6

	// The kernel's own layers, timed alone over one pass of words.
	decompose := tr.begin("decompose", 0)
	enc, model, net, err := biLayers()
	if err != nil {
		out.fail("layer set-up: %v", err)
		return
	}
	// One accumulator per session, like each session's simulator; the
	// first round warms its memo and the second is traced.
	accs := make([]*energy.Accumulator, len(traces))
	for i := range accs {
		accs[i] = energyAccumulator(model)
	}
	var words float64
	buf := make([]uint64, layerChunk)
	for round := 0; round < 2; round++ {
		was := tr.setOn(round == 1)
		for i, ws := range traces {
			enc.Reset()
			encodeAccumulate(tr, decompose, "encoding.bi", "energy", enc, accs[i], ws, buf)
			if round == 1 {
				words += float64(len(ws))
			}
		}
		tr.setOn(was)
	}
	advances := int(out.counts["words"] / nbwpInterval)
	power := make([]float64, enc.Width())
	for i := range power {
		power[i] = 1
	}
	dt := float64(nbwpInterval) * nbwpNode.CyclePeriod()
	for i := 0; i < advances; i++ {
		sp := tr.begin("thermal.advance", decompose)
		err := net.Advance(dt, power)
		tr.end(sp)
		if err != nil {
			out.fail("thermal advance: %v", err)
		}
	}
	tr.end(decompose)
	encD, energyD, thermD := tr.total("encoding.bi"), tr.total("energy"), tr.total("thermal.advance")
	L["encoding.bi.ns_per_word"] = float64(encD.Nanoseconds()) / words
	L["energy.ns_per_word"] = float64(energyD.Nanoseconds()) / words
	L["thermal.advance_us"] = us(thermD) / float64(advances)
	L["thermal.advances"] = float64(advances)
	kernelPass := kernel * time.Duration(out.counts["frames"])
	kernelRec := reconcile("server.kernel per pass", kernelPass, "core.self", map[string]time.Duration{
		"encoding": encD, "energy": energyD, "thermal": thermD,
	})
	L["core.self_ns_per_word"] = kernelRec.ResidualS * 1e9 / words

	h, m := out.counts["memo_hits"], out.counts["memo_misses"]
	L["energy.memo_hits"] = float64(h)
	L["energy.memo_misses"] = float64(m)
	L["energy.memo_hit_rate"] = hitRate(h, m)
	L["server.words"] = float64(out.counts["server.words_total"])
	L["server.samples"] = float64(out.counts["server.samples_total"])
	L["nbwp.frames_in"] = float64(out.counts["server.nbwp_frames_in_total"])
	L["nbwp.frames_out"] = float64(out.counts["server.nbwp_frames_out_total"])

	setup := setupReconcile(tr, nbwpSetupReps, L)
	L["core.new_ms"] = tr.total("core.new").Seconds() * 1e3 / float64(nbwpSetupReps*nbwpSessions)
	L["trace.overhead_pct"] = out.traceOverheadPct()
	out.reconcile = append(out.reconcile, clientRec, serverRec, kernelRec, setup)
	out.layers = L
}

// biLayers builds the BI encoder, energy model and thermal network of a
// session, for timing them on their own.
func biLayers() (encoding.Encoder, *energy.Model, *thermal.Network, error) {
	enc, err := encoding.New("BI")
	if err != nil {
		return nil, nil, nil, err
	}
	model, err := energyModel(nbwpNode, enc.Width())
	if err != nil {
		return nil, nil, nil, err
	}
	net, err := thermal.NewFromNode(nbwpNode, enc.Width(), thermal.NodeOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	return enc, model, net, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
