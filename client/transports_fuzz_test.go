package client_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"nanobus/client"
	"nanobus/internal/blob"
	"nanobus/internal/e2e"
	"nanobus/internal/encoding"
	"nanobus/internal/faultinject"
	"nanobus/internal/server"
)

// This file is the HTTP-vs-NBWP differential fuzzer. A fuzz input decodes
// into a script of session operations, run against one in-process server
// on two sessions in lockstep: side 0 opens its session over HTTP, side 1
// over NBWP, and an attach swaps the transports. Both sides must get the
// same outcome from every operation, a small model predicts the counters
// and error codes, and every finished result must equal the library's
// replay of the words the session stepped (e2e.Reference).

// fuzzMaxBatch is the server's MaxBatchWords in every script: small, so a
// few hundred words reach the size bound, several HTTP binary chunks and
// several sampling intervals.
const fuzzMaxBatch = 64

// The transports may differ only as this table says, each row with its
// reason. The drivers apply a row where they name it; any other
// difference fails the script.
//
//	seq-no-stream  HTTP refuses seq together with stream=samples: a
//	               sequenced HTTP step is a plain request answered by its
//	               (possibly duplicate) ack, so it streams no samples. Its
//	               summary's sample count is held to the NBWP stream.
//	binary-chunks  HTTP reads binary bodies in MaxBatchWords chunks, so only
//	               an NDJSON line or an NBWP frame is size-bounded, and the
//	               ingest failpoint counts chunks. An HTTP binary body runs
//	               as MaxBatchWords-word NBWP frames, and a sequenced batch,
//	               one NBWP frame, stays within MaxBatchWords words.

// Script ops are four bytes: the kind, then three arguments.
const (
	opOpen       = iota // a: K, adaptive, wire temps, ceiling; b: scheme; c: node, interval
	opWords             // a: count; b: count bit, form, misalign; c: seed
	opIdle              // a, b: cycles; c: streamed
	opSeq               // a: next, duplicate or gap, gap size, misalign; b: count; c: seed
	opFault             // a: nth hit, sequenced, seed; b: binary; c: count
	opResult            // a: keep the partial interval open
	opCheckpoint        // a: download instead of store
	opRestore           // a: store, envelope or damaged envelope, by id; b, c: the damage
	opAttach            // reattach each side over the other transport
	opClose             // a: through a second handle, which later ops use
	numOps
)

// How one unsequenced batch travels.
const (
	formLine   = iota // one streamed NDJSON line / one NBWP frame: size-bounded
	formLines         // streamed NDJSON lines / NBWP frames of MaxBatchWords words
	formBinary        // one HTTP binary body / NBWP frames of MaxBatchWords words
)

const (
	seqNext = iota
	seqDuplicate
	seqGap
)

// maxScriptOps bounds a script: every open and attach binds an NBWP slot,
// and a connection has 255.
const maxScriptOps = 64

type fuzzOp [4]byte

// script encodes a seed: the store flag, then the ops.
func script(store bool, ops ...fuzzOp) []byte {
	b := []byte{0}
	if store {
		b[0] = 1
	}
	for _, o := range ops {
		b = append(b, o[:]...)
	}
	return b
}

// openOp opens a static session: a scheme index into AllSchemes, a node
// index (130, 90, 65, 45 nm), an interval index (64, 100, 128, 256
// cycles), a K index (1, 2, 4) and wire temperatures.
func openOp(scheme, node, interval, k byte, temps bool) fuzzOp {
	if temps {
		k |= 8
	}
	return fuzzOp{opOpen, k, scheme, node | interval<<2}
}

// openAdaptive opens an adaptive session from base (an AllSchemes index)
// to CoolSpread whose ceiling is ceil 50 µK steps above the trigger.
func openAdaptive(base, node, interval, ceil byte) fuzzOp {
	return fuzzOp{opOpen, 4 | ceil<<4, base, node | interval<<2}
}

func wordsOp(n int, form, seed byte) fuzzOp {
	return fuzzOp{opWords, byte(n), byte(n>>8) | form<<1, seed}
}
func idleOp(n int) fuzzOp                      { return fuzzOp{opIdle, byte(n), byte(n >> 8), 1} }
func seqOp(mode byte, n int, seed byte) fuzzOp { return fuzzOp{opSeq, mode, byte(n), seed} }

var (
	result     = fuzzOp{opResult, 0, 0, 0}
	resultKeep = fuzzOp{opResult, 1, 0, 0}
	checkpoint = fuzzOp{opCheckpoint, 0, 0, 0}
	download   = fuzzOp{opCheckpoint, 1, 0, 0}
	restore    = fuzzOp{opRestore, 0, 0, 0}
	restoreEnv = fuzzOp{opRestore, 1, 0, 0}
	resurrect  = fuzzOp{opRestore, 4, 0, 0}
	attach     = fuzzOp{opAttach, 0, 0, 0}
	closeOp    = fuzzOp{opClose, 0, 0, 0}
	closeOther = fuzzOp{opClose, 1, 0, 0}
)

// FuzzTransports holds HTTP and NBWP to each other, to the model and to
// the library over op scripts. The seeds replay the scenarios of the
// hand-written parity tests the fuzzer replaced.
func FuzzTransports(f *testing.F) {
	for _, s := range [][]byte{
		// Lifecycle: words, idle, sequenced steps, a duplicate and a gap,
		// result, close, and ops on the closed session.
		script(true, openOp(1, 1, 1, 0, false), wordsOp(64, formBinary, 7), fuzzOp{opIdle, 50, 0, 0},
			seqOp(seqNext, 32, 1), seqOp(seqNext, 32, 2), seqOp(seqNext, 32, 3), seqOp(seqDuplicate, 32, 3),
			seqOp(seqGap, 32, 9), result, closeOp, result, wordsOp(8, formLine, 6), closeOp),
		// Durability: checkpoint to the store and download, step on,
		// restore from each and replay the tail, resurrect by id, then
		// close and resurrect from the envelope.
		script(true, openOp(1, 1, 1, 0, false), seqOp(seqNext, 64, 1), seqOp(seqNext, 64, 2),
			seqOp(seqNext, 64, 3), seqOp(seqNext, 64, 4), checkpoint, download, seqOp(seqNext, 64, 5),
			seqOp(seqNext, 64, 6), restore, seqOp(seqNext, 64, 5), restoreEnv, seqOp(seqDuplicate, 64, 4),
			seqOp(seqNext, 64, 5), result, resurrect, seqOp(seqNext, 64, 5), closeOp, restore, restoreEnv,
			seqOp(seqNext, 64, 5), result),
		// Damaged envelopes: flipped bits and truncations.
		script(false, openOp(0, 2, 2, 0, false), wordsOp(300, formLines, 4), download,
			fuzzOp{opRestore, 2, 3 << 1, 100}, fuzzOp{opRestore, 2, 1 | 5<<1, 200}, fuzzOp{opRestore, 2, 0, 128},
			fuzzOp{opRestore, 2, 0, 0}, idleOp(200), result),
		// Attach across transports both ways, stepping and reading back.
		script(false, openOp(0, 3, 2, 0, false), wordsOp(128, formBinary, 3), attach,
			wordsOp(128, formLines, 4), result, attach, idleOp(100), result, closeOp, attach),
		// Errors: no store, the size bound, the ingest failpoint mid-batch
		// (unsequenced and sequenced), the taint it leaves, and a second
		// handle on a closed session.
		script(false, openOp(1, 1, 1, 0, false), restore, checkpoint, seqOp(seqNext, 32, 1),
			seqOp(seqDuplicate, 32, 1), seqOp(seqGap, 32, 3), wordsOp(fuzzMaxBatch+1, formLine, 5),
			fuzzOp{opFault, 1, 0, 150}, fuzzOp{opFault, 2, 1, 200}, fuzzOp{opFault, 4, 0, 64},
			seqOp(seqNext, 64, 2), download, result, attach, closeOther, wordsOp(8, formLine, 6), result, attach),
		// A long trace of words, idle and words, wire temperatures on.
		script(false, openOp(1, 1, 3, 0, true), wordsOp(511, formLines, 11), fuzzOp{opIdle, 0x84, 3, 0},
			wordsOp(511, formBinary, 12), wordsOp(467, formLines, 13), idleOp(300), result, closeOp),
		// Four interleaved buses: streamed steps, a partial result, idle,
		// a checkpoint and a restore.
		script(true, openOp(0, 0, 3, 2, true), wordsOp(400, formLines, 31), wordsOp(400, formBinary, 32),
			resultKeep, wordsOp(500, formLines, 33), idleOp(200), checkpoint, seqOp(seqNext, 64, 1),
			restore, result, wordsOp(10, formLine, 3)),
		// Two buses, misaligned batches, and an adaptive session, which
		// the server and the library refuse at K > 1.
		script(false, openOp(2, 1, 0, 1, false), wordsOp(64, formLine|4, 3), wordsOp(63, formBinary|4, 4),
			wordsOp(200, formLines, 5), result, fuzzOp{opOpen, 4 | 1, 1, 0}),
		// Adaptive: traffic that switches to the cooling code, a download
		// across the switch, and a restore replaying the tail.
		script(true, openAdaptive(1, 3, 0, 1), wordsOp(400, formLines, 0xAA), wordsOp(400, formBinary, 0xAB),
			download, wordsOp(300, formLines, 0xAC), idleOp(3000), restoreEnv, wordsOp(300, formLines, 0xAC),
			fuzzOp{opIdle, 0xB8, 0x0B, 0}, result),

		// Regressions the fuzzer found. An empty batch has nothing to
		// decode: the ingest failpoint fires on neither an empty HTTP
		// binary body nor an empty NBWP frame.
		script(false, openOp(0, 0, 0, 0, false), fuzzOp{opFault, 4, 0, 0}, result),
		// Row alignment is checked after the write-ahead checks on both
		// transports: a misaligned duplicate is acked, a misaligned gap is
		// a gap, and a misaligned next batch taints the session.
		script(false, openOp(0, 0, 0, 1, false), seqOp(seqNext, 48, 1), seqOp(seqDuplicate|16, 49, 0),
			seqOp(seqGap|16, 49, 0), seqOp(seqNext|16, 49, 0), seqOp(seqNext, 48, 2), download, result),
		// A failed ?stream=samples step reports the status the failure
		// would have had before the 200 header went out.
		script(false, openOp(0, 0, 0, 0, false), wordsOp(fuzzMaxBatch+1, formLine, 1)),
		// An NBWP slot still bound to a session closed through another
		// handle finds it gone before any other check, as HTTP does.
		script(false, openOp(0, 0, 2, 0, false), closeOther, checkpoint, wordsOp(fuzzMaxBatch+1, formLine, 1)),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []fuzzOp
		for i := 1; i+4 <= len(data) && len(ops) < maxScriptOps; i += 4 {
			ops = append(ops, fuzzOp(data[i:i+4]))
		}
		if len(ops) > 0 && ops[0][0]%numOps == opOpen {
			runScript(t, data[0]&1 != 0, ops)
		}
	})
}

// fuzzSide is one of the two sessions a script drives.
type fuzzSide struct {
	id     string
	http   bool // the transport carrying the session now
	hs     *client.HTTPSession
	ns     *client.NBWPSession
	stream []client.Sample // the samples streamed during the current op
	fresh  bool            // the session did not recycle a pooled simulator
	env    []byte          // the last downloaded envelope
}

func (s *fuzzSide) sess() client.Session {
	if s.http {
		return s.hs
	}
	return s.ns
}

func (s *fuzzSide) onSample(smp client.Sample) { s.stream = append(s.stream, smp) }

// fuzzState is what the model knows of the session both sides run.
type fuzzState struct {
	history         []client.StepLine // what the session stepped since open
	cycles, lastSeq uint64
	lastSum         client.StepSummary
	dirty           bool // a sequenced batch failed: seq steps and checkpoints are refused
	closed          bool
	restored        bool // the memo counters are no longer a fresh run's
	finished        int  // len(history) at the last finishing result, or -1
	// logs holds each side's samples streamed since open, complete while
	// logOK: a prefix of the retained samples.
	logs  [2][]client.Sample
	logOK [2]bool
}

// clone deep-copies a model state.
func clone(m *fuzzState) *fuzzState {
	s := *m
	s.history = append([]client.StepLine(nil), s.history...)
	for i := range s.logs {
		s.logs[i] = append([]client.Sample(nil), s.logs[i]...)
	}
	return &s
}

type fuzzRun struct {
	t      *testing.T
	ctx    context.Context
	store  bool
	hc     *client.Client
	nc     *client.NBWPConn
	cfg    client.SessionConfig
	sides  [2]*fuzzSide // nil until an open succeeds
	m      fuzzState
	stored *fuzzState // the model at the stored checkpoint
	dl     *fuzzState // the model at the last download
}

func runScript(t *testing.T, store bool, ops []fuzzOp) {
	defer faultinject.Reset()
	requireNoLeak(t)
	cfg := server.Config{MaxBatchWords: fuzzMaxBatch}
	if store {
		cfg.Store = blob.NewMemStore()
	}
	_, hc, addr := newNBWPService(t, cfg)
	r := &fuzzRun{t: t, ctx: context.Background(), store: store, hc: hc, nc: dialNBWP(t, addr)}
	for i, o := range ops {
		r.do(fmt.Sprintf("op %d %v", i, o), o)
	}
	if err := r.nc.Goodbye(r.ctx); err != nil {
		t.Fatal(err)
	}
}

// requireNoLeak fails the test if goroutines outlive the script once
// every cleanup registered after it (server, listener, connection) ran.
func requireNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(end); {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left after close, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
	})
}

// both runs op on each side, with the ingest failpoint armed by spec if
// set, and requires the sides to fail alike (status and code) or both to
// succeed. want is the model's code: "" for success, "*" for no opinion.
// It reports whether both succeeded.
func (r *fuzzRun) both(what, spec, want string, op func(i int, s *fuzzSide) error) bool {
	r.t.Helper()
	var errs [2]*client.APIError
	for i, s := range r.sides {
		s.stream = s.stream[:0]
		if spec != "" {
			if err := faultinject.Set("server.ingest.decode", spec); err != nil {
				r.t.Fatal(err)
			}
		}
		err := op(i, s)
		faultinject.Reset()
		if err != nil && !errors.As(err, &errs[i]) {
			r.t.Fatalf("%s: side %d: %v is not an API error", what, i, err)
		}
	}
	a, b := errs[0], errs[1]
	if (a == nil) != (b == nil) || a != nil && (a.StatusCode != b.StatusCode || a.Code != b.Code) {
		r.t.Fatalf("%s: side 0 (http %v) got %v, side 1 %v", what, r.sides[0].http, a, b)
	}
	if want != "*" && (a == nil && want != "" || a != nil && a.Code != want) {
		r.t.Fatalf("%s: got %v, the model wants %q", what, a, want)
	}
	return a == nil
}

// unlessClosed returns want while the session is open, not_found once closed.
func (r *fuzzRun) unlessClosed(want string) string {
	if r.m.closed {
		return server.CodeNotFound
	}
	return want
}

func (r *fuzzRun) do(what string, o fuzzOp) {
	kind, a, b, c := o[0]%numOps, o[1], o[2], o[3]
	if kind == opOpen {
		r.openSessions(what, a, b, c)
		return
	}
	if r.sides[0] == nil {
		return
	}
	k := max(r.cfg.Buses, 1)
	switch kind {
	case opWords:
		n := int(a) | int(b&1)<<8
		if b&8 == 0 {
			n -= n % k
		}
		r.step(what, "", client.StepLine{Words: words(uint32(c)+1, n)}, int(b>>1&3)%3)
	case opIdle:
		r.step(what, "", client.StepLine{Idle: uint64(a) | uint64(b&0x3f)<<8}, [2]int{formBinary, formLine}[c&1])
	case opSeq:
		r.seq(what, "", a, int(b)%(fuzzMaxBatch+1), c)
	case opFault:
		spec := fmt.Sprintf("error,nth=%d", 1+a&3)
		if a&4 != 0 {
			r.seq(what, spec, seqNext, int(c)%(fuzzMaxBatch+1), b)
		} else {
			n := fuzzMaxBatch + int(c)
			r.step(what, spec, client.StepLine{Words: words(uint32(a)+1, n-n%k)}, formLines+int(b&1))
		}
	case opResult:
		r.result(what, a&1 == 0)
	case opCheckpoint:
		r.checkpoint(what, a&1 != 0)
	case opRestore:
		r.restore(what, a&3%3, a&4 != 0, b, c)
	case opAttach:
		r.attach(what)
	case opClose:
		r.close(what, a&1 != 0)
	}
}

// openSessions opens a fresh session on each side and requires the
// library to accept exactly the settings the server accepts.
func (r *fuzzRun) openSessions(what string, a, b, c byte) {
	schemes := encoding.AllSchemes()
	cfg := client.SessionConfig{
		Node:           [...]string{"130nm", "90nm", "65nm", "45nm"}[c&3],
		IntervalCycles: [...]uint64{64, 100, 128, 256}[c>>2&3],
		Buses:          [...]int{0, 2, 4, 0}[a&3],
		TrackWireTemps: a&8 != 0,
	}
	if a&4 != 0 {
		const guard = 1e-4
		cfg.Adaptive = &client.AdaptiveSpec{
			Base: schemes[int(b)%len(schemes)], Cool: "CoolSpread",
			CeilingK: 318.15 + guard + 50e-6*float64(a>>4), GuardK: guard, HysteresisK: guard / 4,
		}
	} else {
		cfg.Encoding = schemes[int(b)%len(schemes)]
	}
	hs, err0 := r.hc.CreateSession(r.ctx, cfg)
	sides := [2]*fuzzSide{{http: true, hs: hs}, {}}
	ns, err1 := r.nc.Open(r.ctx, cfg, sides[1].onSample)
	sides[1].ns = ns
	ref, refErr := e2e.Reference(r.ctx, cfg, nil)
	prev := r.sides
	r.sides = sides
	if !r.both(what, "", "*", func(i int, _ *fuzzSide) error { return [2]error{err0, err1}[i] }) {
		if refErr == nil {
			r.t.Fatalf("%s: the server refuses %+v (%v), the library accepts it", what, cfg, err0)
		}
		r.sides = prev
		return
	}
	if refErr != nil {
		r.t.Fatalf("%s: the server accepts %+v, the library refuses it: %v", what, cfg, refErr)
	}
	sides[0].id, sides[0].fresh = hs.Info.ID, !hs.Info.Recycled
	sides[1].id, sides[1].fresh = ns.Info.ID, !ns.Info.Recycled
	if sides[0].id == "" || sides[1].id == "" || sides[0].id == sides[1].id {
		r.t.Fatalf("%s: session ids %q, %q", what, sides[0].id, sides[1].id)
	}
	r.cfg = cfg
	r.m, r.stored, r.dl = fuzzState{finished: -1, logOK: [2]bool{true, true}}, nil, nil
	r.sameInfo(what, hs.Info, ns.Info, ref.Width)
}

// sameInfo requires two session infos to agree with each other and with
// the configuration, apart from the id, shard and pool reuse.
func (r *fuzzRun) sameInfo(what string, a, b client.SessionInfo, width int) {
	for _, in := range []*client.SessionInfo{&a, &b} {
		spec := r.cfg.Adaptive
		adaptive := spec != nil && in.Adaptive != nil && *in.Adaptive == *spec && in.Encoding == "adaptive"
		if in.Width != width || in.Buses != r.cfg.Buses || (spec != nil) != adaptive {
			r.t.Fatalf("%s: session info %+v for %+v, width %d", what, *in, r.cfg, width)
		}
		in.ID, in.Shard, in.Recycled, in.Adaptive = "", 0, false, nil
	}
	if a != b {
		r.t.Fatalf("%s: session infos differ: %+v, %+v", what, a, b)
	}
}

// pieces cuts a batch into MaxBatchWords-word pieces (whole rows, as
// MaxBatchWords is a multiple of every K); an empty batch is one piece.
func pieces(words []uint32) [][]uint32 {
	var out [][]uint32
	for len(words) > fuzzMaxBatch {
		out, words = append(out, words[:fuzzMaxBatch]), words[fuzzMaxBatch:]
	}
	return append(out, words)
}

// step steps one unsequenced line, words or idle cycles, in the given
// form (streamed unless formBinary); idle steps cannot fail.
func (r *fuzzRun) step(what, spec string, line client.StepLine, form int) {
	var (
		sums    [2]client.StepSummary
		applied client.StepLine // what the NBWP side had acknowledged
	)
	want := r.unlessClosed("*")
	if line.Idle > 0 {
		want = r.unlessClosed("")
	}
	ok := r.both(what, spec, want, func(i int, s *fuzzSide) (err error) {
		switch {
		case s.http && form == formBinary && line.Idle > 0:
			sums[i], err = s.hs.StepIdle(r.ctx, line.Idle)
		case s.http && form == formBinary:
			sums[i], err = s.hs.StepBinary(r.ctx, line.Words)
		case s.http:
			lines := []client.StepLine{line}
			if form == formLines {
				lines = lines[:0]
				for _, p := range pieces(line.Words) {
					lines = append(lines, client.StepLine{Words: p})
				}
			}
			body, berr := client.BodyFromLines(lines)
			if berr != nil {
				r.t.Fatal(berr)
			}
			sums[i], err = s.hs.StepStream(r.ctx, body, s.onSample)
		case line.Idle > 0:
			sums[i], err = s.ns.StepIdle(r.ctx, line.Idle)
		case form == formLine:
			sums[i], err = s.ns.StepBinary(r.ctx, line.Words)
		default:
			// Row binary-chunks: one frame per chunk.
			for _, p := range pieces(line.Words) {
				var sum client.StepSummary
				if sum, err = s.ns.StepBinary(r.ctx, p); err != nil {
					break
				}
				applied.Words = line.Words[:len(applied.Words)+len(p)]
				sums[i].Words, sums[i].Samples, sums[i].Cycles = sums[i].Words+sum.Words, sums[i].Samples+sum.Samples, sum.Cycles
			}
		}
		if !s.http && err == nil {
			applied = line
		}
		return err
	})
	r.apply(applied)
	r.streams(what, sums, ok, form != formBinary, client.StepSummary{Words: uint64(len(line.Words)), Idle: line.Idle})
}

// seq steps one sequenced batch (row seq-no-stream: HTTP sends it
// unstreamed); mode picks its seq against the frontier.
func (r *fuzzRun) seq(what, spec string, mode byte, n int, seed byte) {
	m := &r.m
	seq := m.lastSeq + 1
	switch mode & 3 {
	case seqDuplicate:
		seq = max(m.lastSeq, 1)
	case seqGap:
		seq += 1 + uint64(mode>>2&3)
	}
	if mode&16 == 0 {
		n -= n % max(r.cfg.Buses, 1)
	}
	batch := words(uint32(seed)+1, n)
	want := "*"
	switch {
	case m.dirty:
		want = server.CodeSeqConflict
	case seq > m.lastSeq+1:
		want = server.CodeSeqGap
	case seq <= m.lastSeq:
		want = ""
	}
	var sums [2]client.StepSummary
	ok := r.both(what, spec, r.unlessClosed(want), func(i int, s *fuzzSide) (err error) {
		sums[i], err = s.sess().StepBinarySeq(r.ctx, seq, batch)
		return err
	})
	switch {
	case m.closed || want != "*":
		// Duplicates step nothing; their Samples echo the applied batch.
		r.streams(what, [2]client.StepSummary{}, false, false, client.StepSummary{})
		echo := client.StepSummary{Cycles: m.cycles, Seq: seq, Duplicate: true}
		if seq == m.lastSeq {
			echo.Words, echo.Samples = m.lastSum.Words, m.lastSum.Samples
		}
		if ok {
			r.summary(what, sums, echo)
		}
	case ok:
		r.apply(client.StepLine{Words: batch})
		r.streams(what, sums, ok, false, client.StepSummary{Words: uint64(n), Seq: seq})
		m.lastSeq, m.lastSum = seq, sums[0]
	default:
		// The write-ahead mark went down before the first word, and the
		// batch is one frame and one chunk: nothing applied, and the
		// session is tainted until a restore.
		m.dirty = true
		r.streams(what, sums, ok, false, client.StepSummary{})
	}
}

// apply records a stepped line in the model.
func (r *fuzzRun) apply(line client.StepLine) {
	if len(line.Words) > 0 || line.Idle > 0 {
		r.m.history = append(r.m.history, line)
		r.m.cycles += uint64(len(line.Words)/max(r.cfg.Buses, 1)) + line.Idle
	}
}

func (r *fuzzRun) summary(what string, sums [2]client.StepSummary, want client.StepSummary) {
	r.t.Helper()
	for i, sum := range sums {
		if sum != want {
			r.t.Fatalf("%s: side %d summary %+v, want %+v", what, i, sum, want)
		}
	}
}

// streams checks the samples each side streamed during a step op and,
// if the op succeeded, its summaries against want. Two streams must agree
// in order and bits; a side that could not stream (an HTTP side when
// httpStreams is false) is held to the other's count through its summary.
func (r *fuzzRun) streams(what string, sums [2]client.StepSummary, ok, httpStreams bool, want client.StepSummary) {
	r.t.Helper()
	var streamed [2]bool
	for i, s := range r.sides {
		if streamed[i] = !s.http || httpStreams; streamed[i] {
			r.m.logs[i] = append(r.m.logs[i], s.stream...)
		} else if !ok || sums[i].Samples > 0 {
			r.m.logOK[i] = false
		}
	}
	a, b := r.sides[0].stream, r.sides[1].stream
	switch {
	case streamed[0] && streamed[1]:
		if err := e2e.SameStream(&client.Result{Samples: a}, b); err != nil || len(a) != len(b) {
			r.t.Fatalf("%s: streams of %d and %d samples differ: %v", what, len(a), len(b), err)
		}
	case ok && streamed[0] && uint64(len(a)) != sums[1].Samples, ok && streamed[1] && uint64(len(b)) != sums[0].Samples:
		r.t.Fatalf("%s: streamed %d/%d samples, summaries say %d/%d", what, len(a), len(b), sums[0].Samples, sums[1].Samples)
	}
	if ok && want != (client.StepSummary{}) {
		want.Samples, want.Cycles = sums[0].Samples, r.m.cycles
		r.summary(what, sums, want)
	}
}

// result holds both results to each other and to the model and, while the
// library can replay the session's history, to e2e.Reference: figures,
// the memo counters of a fresh session, and the samples streamed so far.
func (r *fuzzRun) result(what string, finish bool) {
	var res [2]*client.Result
	if !r.both(what, "", r.unlessClosed(""), func(i int, s *fuzzSide) (err error) {
		res[i], err = s.sess().Result(r.ctx, finish)
		return err
	}) {
		return
	}
	m := &r.m
	if err := e2e.SameResult(res[0], res[1]); err != nil {
		r.t.Fatalf("%s: results differ across transports: %v", what, err)
	}
	if k := r.cfg.Buses; res[0].Cycles != m.cycles || res[0].Buses != k || len(res[0].PerBus) != k {
		r.t.Fatalf("%s: result of %d cycles and %d buses (%d blocks), the model has %d cycles",
			what, res[0].Cycles, res[0].Buses, len(res[0].PerBus), m.cycles)
	}
	if !finish || m.finished >= 0 && m.finished != len(m.history) {
		return
	}
	m.finished = len(m.history)
	ref, err := e2e.Reference(r.ctx, r.cfg, m.history)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := e2e.SameResult(ref, res[0]); err != nil {
		r.t.Fatalf("%s: the service differs from the library: %v", what, err)
	}
	for i, s := range r.sides {
		if s.fresh && !m.restored && (res[i].Memo.Hits != ref.Memo.Hits || res[i].Memo.Misses != ref.Memo.Misses) {
			r.t.Fatalf("%s: side %d memo %+v, library %+v", what, i, res[i].Memo, ref.Memo)
		}
		if !m.logOK[i] {
			continue
		}
		log := m.logs[i]
		if len(ref.PerBus) == 0 {
			err = e2e.SameStream(ref, log)
		}
		for k := 0; err == nil && k < len(ref.PerBus); k++ {
			err = e2e.SameStream(&client.Result{Samples: ref.PerBus[k].Samples}, client.BusSamples(log, k))
		}
		for j := 0; err == nil && j < len(log) && r.cfg.Buses > 1; j++ {
			if log[j].Bus != j%r.cfg.Buses {
				err = fmt.Errorf("sample %d of bus %d, want bus %d", j, log[j].Bus, j%r.cfg.Buses)
			}
		}
		if err != nil {
			r.t.Fatalf("%s: side %d streamed samples differ from the retained ones: %v", what, i, err)
		}
	}
}

func (r *fuzzRun) checkpoint(what string, dl bool) {
	want := ""
	switch {
	case r.m.closed:
		want = server.CodeNotFound
	case !dl && !r.store:
		want = server.CodeNoStore
	case r.m.dirty:
		want = server.CodeSeqConflict
	}
	var (
		infos [2]client.CheckpointInfo
		envs  [2][]byte
	)
	if !r.both(what, "", want, func(i int, s *fuzzSide) (err error) {
		if dl {
			envs[i], err = s.sess().CheckpointDownload(r.ctx)
		} else {
			infos[i], err = s.sess().Checkpoint(r.ctx)
		}
		return err
	}) {
		return
	}
	snap := clone(&r.m)
	if r.store {
		// A download also saves the envelope to the store.
		r.stored = snap
	}
	if dl {
		r.dl = snap
		r.sides[0].env, r.sides[1].env = envs[0], envs[1]
		if len(envs[0]) == 0 || len(envs[0]) != len(envs[1]) {
			r.t.Fatalf("%s: envelopes of %d and %d bytes", what, len(envs[0]), len(envs[1]))
		}
		return
	}
	for i, info := range infos {
		if info.Seq != r.m.lastSeq || info.Cycles != r.m.cycles || !info.Stored || info.Bytes != infos[0].Bytes ||
			len(info.SHA256) != 64 {
			r.t.Fatalf("%s: side %d checkpoint %+v, the model has seq %d, cycle %d", what, i, info, r.m.lastSeq, r.m.cycles)
		}
	}
}

// restore rewinds both sessions from the store (mode 0) or from each
// side's envelope, intact (1) or damaged (2): one bit flipped or the
// envelope truncated. A closed session is resurrected by id through its
// transport, as is a live one when byID is set.
func (r *fuzzRun) restore(what string, mode byte, byID bool, b, c byte) {
	snap, want := r.dl, ""
	if mode == 0 || r.dl == nil {
		snap = r.stored
		switch {
		case !r.store:
			want = server.CodeNoStore
		case snap == nil:
			want = server.CodeNoCheckpoint
		}
	} else if mode == 2 {
		want = server.CodeCheckpointCorrupt
	}
	var resps [2]client.RestoreResponse
	if !r.both(what, "", want, func(i int, s *fuzzSide) (err error) {
		var env []byte
		if mode > 0 && s.env != nil {
			env = append([]byte(nil), s.env...)
			// An empty inline envelope asks for the store, so a
			// truncation keeps at least one byte.
			if at := 1 + int(c)*(len(env)-1)/256; mode == 2 && b&1 != 0 {
				env[at-1] ^= 1 << (b >> 1 & 7)
			} else if mode == 2 {
				env = env[:at]
			}
		}
		switch {
		case r.m.closed || byID:
			resps[i], err = r.resurrect(s, env)
		case env == nil:
			resps[i], err = s.sess().Restore(r.ctx)
		default:
			resps[i], err = s.sess().RestoreFrom(r.ctx, env)
		}
		return err
	}) {
		return
	}
	for i, resp := range resps {
		if resp.Seq != snap.lastSeq || resp.Cycles != snap.cycles || resp.Resurrected != r.m.closed ||
			resp.Words+resp.IdleCycles != resps[0].Words+resps[0].IdleCycles {
			r.t.Fatalf("%s: side %d restore %+v, the model has seq %d, cycle %d", what, i, resp, snap.lastSeq, snap.cycles)
		}
	}
	r.m = *clone(snap)
	// The envelope carries the counters, not the last batch's summary:
	// a duplicate of the restored seq echoes the counters alone.
	r.m.lastSum, r.m.restored = client.StepSummary{}, true
}

// resurrect restores a session by id through the side's transport. An
// NBWP resurrection binds a slot that streams no samples, so the side
// attaches a second slot that does.
func (r *fuzzRun) resurrect(s *fuzzSide, env []byte) (client.RestoreResponse, error) {
	if s.http {
		sess, resp, err := r.hc.Resurrect(r.ctx, s.id, env)
		if err == nil {
			s.hs = sess.(*client.HTTPSession)
		}
		return resp, err
	}
	_, resp, err := r.nc.RestoreSession(r.ctx, s.id, env)
	if err == nil {
		s.ns, err = r.nc.Attach(r.ctx, s.id, s.onSample)
	}
	return resp, err
}

// reattach binds a new handle to the side's session, over the other
// transport when other is set.
func (r *fuzzRun) reattach(s *fuzzSide, other bool) (client.SessionInfo, error) {
	if s.http == other {
		ns, err := r.nc.Attach(r.ctx, s.id, s.onSample)
		if err != nil {
			return client.SessionInfo{}, err
		}
		s.ns, s.http = ns, false
		return ns.Info, nil
	}
	sess, err := r.hc.AttachSession(r.ctx, s.id)
	if err != nil {
		return client.SessionInfo{}, err
	}
	s.hs, s.http = sess.(*client.HTTPSession), true
	return s.hs.Info, nil
}

func (r *fuzzRun) attach(what string) {
	var infos [2]client.SessionInfo
	if r.both(what, "", r.unlessClosed(""), func(i int, s *fuzzSide) (err error) {
		infos[i], err = r.reattach(s, true)
		return err
	}) {
		r.sameInfo(what, infos[0], infos[1], infos[0].Width)
	}
}

// close closes both sessions, through a second handle on the same
// transport when second is set; later ops use that handle.
func (r *fuzzRun) close(what string, second bool) {
	r.both(what, "", r.unlessClosed(""), func(_ int, s *fuzzSide) error {
		if !second || r.m.closed {
			return s.sess().Close(r.ctx)
		}
		first := s.sess()
		if _, err := r.reattach(s, false); err != nil {
			return err
		}
		return first.Close(r.ctx)
	})
	// Closing deletes the stored checkpoint too.
	r.m.closed, r.stored = true, nil
}
