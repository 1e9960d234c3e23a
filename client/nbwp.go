package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"nanobus/internal/nbwp"
	"nanobus/internal/server"
)

// This file is the NBWP client transport: one persistent TCP connection
// multiplexing up to 255 sessions, with pipelined sends. Every request
// frame is answered by exactly one ACK or ERROR frame in request order,
// so correlation is a FIFO: the sender enqueues a pending entry and
// writes the frame under one lock (keeping queue order identical to wire
// order), and the reader goroutine pairs each arriving ACK/ERROR with
// the oldest pending entry. SAMPLE and DRAIN frames are unsolicited and
// bypass the FIFO. Failures map onto the same *APIError (and therefore
// the same library sentinels) as the HTTP surface.

// ErrConnClosed marks an operation on an NBWP connection that has
// already failed or been closed.
var ErrConnClosed = errors.New("nanobus: nbwp connection closed")

// NBWPConn is one NBWP connection to a nanobusd instance.
type NBWPConn struct {
	c  net.Conn
	br *bufio.Reader

	// wmu orders frame writes and pending-FIFO pushes; bw/fw and the
	// slot table are guarded by it.
	wmu      sync.Mutex
	bw       *bufio.Writer
	fw       nbwp.FrameWriter
	slots    [256]bool
	onSample [256]func(Sample)

	// pmu guards the pending FIFO (pushed under wmu+pmu, popped by the
	// reader goroutine) and the terminal error.
	pmu     sync.Mutex
	pending []*nbwpPending
	readErr error

	draining atomic.Bool
	onDrain  atomic.Pointer[func()]
	closed   atomic.Bool
}

// nbwpPending is one in-flight request. step (hot path) or decode runs
// on the reader goroutine while the frame payload buffer is valid; its
// result is delivered through done (buffered, so an abandoned waiter
// never blocks the reader). step is a typed field rather than a decode
// closure so the pipelined STEP path allocates nothing per frame.
type nbwpPending struct {
	step   *StepPending
	decode func(h nbwp.Header, payload []byte) error
	done   chan error
}

// DialNBWP connects to a nanobusd NBWP listener at addr (host:port) and
// performs the HELLO exchange. The returned connection is safe for
// concurrent use by multiple sessions.
func DialNBWP(ctx context.Context, addr string) (*NBWPConn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return handshakeNBWP(ctx, c)
}

// handshakeNBWP runs the NBWP client over an established connection,
// starting with the HELLO exchange.
func handshakeNBWP(ctx context.Context, c net.Conn) (*NBWPConn, error) {
	nc := &NBWPConn{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
	nc.fw = nbwp.FrameWriter{W: nc.bw}
	go nc.readLoop()
	// HELLO pins the protocol version before any session traffic.
	if err := nc.roundTrip(ctx, nbwp.Header{Type: nbwp.TypeHello}, nil, nil); err != nil {
		//nanolint:ignore droppederr the handshake error is reported; close is best-effort cleanup
		_ = nc.Close()
		return nil, err
	}
	return nc, nil
}

// Close tears the connection down, failing every in-flight request with
// ErrConnClosed. Sessions opened on it stay registered server-side and
// can be reattached from a new connection.
func (nc *NBWPConn) Close() error {
	if !nc.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := nc.c.Close()
	nc.fail(ErrConnClosed)
	return err
}

// Goodbye ends the connection gracefully: the server acks and hangs up.
func (nc *NBWPConn) Goodbye(ctx context.Context) error {
	if err := nc.roundTrip(ctx, nbwp.Header{Type: nbwp.TypeGoodbye}, nil, nil); err != nil {
		return err
	}
	return nc.Close()
}

// Draining reports whether the server has announced a drain: finish
// in-flight work, collect results, and say goodbye.
func (nc *NBWPConn) Draining() bool { return nc.draining.Load() }

// Broken reports whether the connection has hit its terminal error (peer
// went away, protocol violation, Close). A broken connection fails every
// operation; dial a fresh one and reattach.
func (nc *NBWPConn) Broken() bool {
	nc.pmu.Lock()
	defer nc.pmu.Unlock()
	return nc.readErr != nil
}

// SetOnDrain installs a callback invoked (once, from the reader
// goroutine) when the server announces a drain.
func (nc *NBWPConn) SetOnDrain(fn func()) { nc.onDrain.Store(&fn) }

// fail parks err as the connection's terminal error and fails every
// pending request with it.
func (nc *NBWPConn) fail(err error) {
	nc.pmu.Lock()
	if nc.readErr == nil {
		nc.readErr = err
	}
	pending := nc.pending
	nc.pending = nil
	err = nc.readErr
	nc.pmu.Unlock()
	for _, p := range pending {
		p.done <- err
	}
}

// readLoop is the connection's reader goroutine: unsolicited frames
// (SAMPLE, DRAIN) dispatch to their handlers, everything else resolves
// the oldest pending request.
func (nc *NBWPConn) readLoop() {
	fr := nbwp.FrameReader{R: nc.br, Max: nbwp.MaxPayload}
	var h nbwp.Header
	for {
		payload, err := fr.ReadFrame(&h)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = ErrConnClosed
			}
			nc.fail(err)
			return
		}
		switch h.Type {
		case nbwp.TypeSample:
			if err := nc.dispatchSample(h, payload); err != nil {
				nc.fail(err)
				return
			}
			continue
		case nbwp.TypeDrain:
			if nc.draining.CompareAndSwap(false, true) {
				if fn := nc.onDrain.Load(); fn != nil && *fn != nil {
					(*fn)()
				}
			}
			continue
		}
		nc.pmu.Lock()
		var p *nbwpPending
		if len(nc.pending) > 0 {
			p = nc.pending[0]
			nc.pending = nc.pending[1:]
		}
		nc.pmu.Unlock()
		if p == nil {
			nc.fail(fmt.Errorf("nanobus: unsolicited %#x frame with no request in flight", uint8(h.Type)))
			return
		}
		switch h.Type {
		case nbwp.TypeAck:
			var derr error
			if p.step != nil {
				derr = p.step.decodeAck(h, payload)
			} else if p.decode != nil {
				derr = p.decode(h, payload)
			}
			p.done <- derr
		case nbwp.TypeError:
			we, perr := nbwp.ParseError(payload)
			if perr != nil {
				nc.fail(perr)
				return
			}
			ae := &APIError{StatusCode: we.Status, Code: we.Code, Message: we.Msg}
			if we.Owner != "" {
				// The owner rides as JSON inside the ERROR frame; a
				// malformed blob degrades to a redirect without contacts.
				var oi OwnerInfo
				if json.Unmarshal([]byte(we.Owner), &oi) == nil {
					ae.Owner = &oi
				}
			}
			p.done <- ae
		default:
			nc.fail(fmt.Errorf("nanobus: unexpected %#x frame in ack position", uint8(h.Type)))
			return
		}
	}
}

// dispatchSample decodes a SAMPLE frame in the layout its flags name and
// hands it to the slot's callback. A malformed sample is a protocol
// violation: the caller fails the connection rather than drop it.
func (nc *NBWPConn) dispatchSample(h nbwp.Header, payload []byte) error {
	var ws nbwp.Sample
	if err := nbwp.ParseSample(payload, h.Flags, &ws); err != nil {
		return err
	}
	nc.wmu.Lock()
	fn := nc.onSample[h.Slot]
	nc.wmu.Unlock()
	if fn == nil {
		return nil
	}
	fn(Sample(ws))
	return nil
}

// send enqueues a pending entry and writes the request frame under one
// lock, keeping the FIFO aligned with wire order. The caller waits on
// the returned entry (see NBWPPending.Wait).
func (nc *NBWPConn) send(h nbwp.Header, payload []byte, decode func(nbwp.Header, []byte) error) (*nbwpPending, error) {
	p := &nbwpPending{decode: decode, done: make(chan error, 1)}
	if err := nc.sendPending(p, h, payload); err != nil {
		return nil, err
	}
	return p, nil
}

// sendPending enqueues a caller-owned pending entry and writes the
// frame. On error the entry may already have been failed through its
// done channel, so the caller must not reuse (or pool) it.
func (nc *NBWPConn) sendPending(p *nbwpPending, h nbwp.Header, payload []byte) error {
	nc.wmu.Lock()
	nc.pmu.Lock()
	if nc.readErr != nil {
		err := nc.readErr
		nc.pmu.Unlock()
		nc.wmu.Unlock()
		return err
	}
	nc.pending = append(nc.pending, p)
	nc.pmu.Unlock()
	err := nc.fw.WriteFrame(h, payload)
	nc.wmu.Unlock()
	if err != nil {
		nc.fail(err)
		return err
	}
	return nil
}

// Flush pushes buffered request frames to the server. Blocking waits
// flush implicitly; a purely pipelined sender should flush before going
// idle.
func (nc *NBWPConn) Flush() error {
	nc.wmu.Lock()
	err := nc.bw.Flush()
	nc.wmu.Unlock()
	if err != nil {
		nc.fail(err)
	}
	return err
}

// wait flushes and blocks until the pending request resolves or ctx
// ends. An abandoned request stays in the FIFO (its ack still arrives
// and must be consumed in order); only its result is discarded.
func (nc *NBWPConn) wait(ctx context.Context, p *nbwpPending) error {
	err, _ := nc.waitDone(ctx, p)
	return err
}

// waitDone is wait plus a flag reporting whether the entry actually
// resolved through its done channel — only then has the reader
// goroutine let go of it and it may be pooled for reuse.
func (nc *NBWPConn) waitDone(ctx context.Context, p *nbwpPending) (error, bool) {
	if err := nc.Flush(); err != nil {
		return err, false
	}
	select {
	case err := <-p.done:
		return err, true
	case <-ctx.Done():
		return ctx.Err(), false
	}
}

// roundTrip sends one frame and blocks for its acknowledgement.
func (nc *NBWPConn) roundTrip(ctx context.Context, h nbwp.Header, payload []byte, decode func(nbwp.Header, []byte) error) error {
	p, err := nc.send(h, payload, decode)
	if err != nil {
		return err
	}
	return nc.wait(ctx, p)
}

// --- Session surface ---------------------------------------------------------

// NBWPSession is a session bound to a slot of an NBWPConn. It mirrors
// the HTTP Session surface; the underlying session is the same
// server-side object either transport addresses.
type NBWPSession struct {
	nc   *NBWPConn
	slot uint8
	Info SessionInfo
}

// ID returns the session id.
func (s *NBWPSession) ID() string { return s.Info.ID }

// allocSlot claims a free slot byte.
func (nc *NBWPConn) allocSlot() (uint8, error) {
	nc.wmu.Lock()
	defer nc.wmu.Unlock()
	for s := 1; s < 256; s++ {
		if !nc.slots[s] {
			nc.slots[s] = true
			return uint8(s), nil
		}
	}
	return 0, errors.New("nanobus: all 255 session slots are bound")
}

func (nc *NBWPConn) freeSlot(s uint8) {
	nc.wmu.Lock()
	nc.slots[s] = false
	nc.onSample[s] = nil
	nc.wmu.Unlock()
}

// Open creates a session over the connection. onSample, when non-nil,
// receives streamed SAMPLE frames (the ?stream=samples twin) on the
// connection's reader goroutine.
func (nc *NBWPConn) Open(ctx context.Context, cfg SessionConfig, onSample func(Sample)) (*NBWPSession, error) {
	payload, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var flags uint8
	if onSample != nil {
		flags |= nbwp.FlagStream
	}
	return nc.open(ctx, flags, payload, onSample)
}

// Attach binds an existing session (created over either transport) to a
// slot of this connection — the reattach path after a reconnect.
func (nc *NBWPConn) Attach(ctx context.Context, id string, onSample func(Sample)) (*NBWPSession, error) {
	flags := uint8(nbwp.FlagAttach)
	if onSample != nil {
		flags |= nbwp.FlagStream
	}
	return nc.open(ctx, flags, []byte(id), onSample)
}

func (nc *NBWPConn) open(ctx context.Context, flags uint8, payload []byte, onSample func(Sample)) (*NBWPSession, error) {
	slot, err := nc.allocSlot()
	if err != nil {
		return nil, err
	}
	if onSample != nil {
		nc.wmu.Lock()
		nc.onSample[slot] = onSample
		nc.wmu.Unlock()
	}
	var info SessionInfo
	p, err := nc.send(nbwp.Header{Type: nbwp.TypeOpen, Flags: flags, Slot: slot},
		payload, decodeJSON(&info))
	if err == nil {
		err = nc.wait(ctx, p)
	}
	if err != nil {
		nc.freeSlot(slot)
		return nil, err
	}
	return &NBWPSession{nc: nc, slot: slot, Info: info}, nil
}

// decodeJSON returns a pending decoder unmarshalling the ack payload
// into out. It runs on the reader goroutine; the copy json makes is what
// lets the frame buffer be reused immediately.
func decodeJSON(out any) func(nbwp.Header, []byte) error {
	return func(_ nbwp.Header, payload []byte) error {
		return json.Unmarshal(payload, out)
	}
}

// StepPending is one pipelined in-flight STEP frame; Wait blocks for its
// acknowledgement. Settled entries are recycled through a pool, so a
// StepPending must not be touched after Wait returns.
type StepPending struct {
	nc   *NBWPConn
	pend nbwpPending
	sum  StepSummary
}

// stepPendingPool recycles StepPending entries (and their buffered done
// channels) so the pipelined hot path allocates nothing per frame.
var stepPendingPool sync.Pool

func newStepPending(nc *NBWPConn) *StepPending {
	sp, _ := stepPendingPool.Get().(*StepPending)
	if sp == nil {
		sp = &StepPending{}
		sp.pend.step = sp
		sp.pend.done = make(chan error, 1)
	}
	sp.nc = nc
	sp.sum = StepSummary{}
	return sp
}

// decodeAck runs on the reader goroutine while the ack payload buffer
// is valid.
func (sp *StepPending) decodeAck(ah nbwp.Header, payload []byte) error {
	var ack nbwp.StepAck
	if err := nbwp.ParseStepAck(payload, &ack); err != nil {
		return err
	}
	sp.sum = StepSummary{
		Words: ack.Words, Idle: ack.Idle, Cycles: ack.Cycles, Samples: ack.Samples,
		Duplicate: ah.Flags&nbwp.FlagDuplicate != 0,
	}
	if ah.Flags&nbwp.FlagSeq != 0 || ah.Seq != 0 {
		sp.sum.Seq = uint64(ah.Seq)
	}
	return nil
}

// Wait flushes and blocks until the batch is acknowledged, returning its
// summary. The StepPending is recycled when the ack (or its error) has
// been consumed; an abandoned wait (ctx ended first) leaves the entry
// alive for the reader goroutine and simply never reuses it.
func (sp *StepPending) Wait(ctx context.Context) (StepSummary, error) {
	err, settled := sp.nc.waitDone(ctx, &sp.pend)
	sum := sp.sum
	if settled {
		stepPendingPool.Put(sp)
	}
	if err != nil {
		return StepSummary{}, err
	}
	return sum, nil
}

// SendStepSeq pipelines one binary words batch under write-ahead
// sequence number seq (1-based, strictly consecutive, at most 2^32-1 —
// the NBWP header seq is 32-bit) without waiting for the ack: stream a
// window of batches, then Wait on each StepPending in send order. The
// exactly-once ?seq= semantics are the HTTP surface's; after a
// reconnect, replay unacknowledged batches from the last acknowledged
// seq + 1 and duplicates are acked without re-stepping.
func (s *NBWPSession) SendStepSeq(seq uint64, words []uint32) (*StepPending, error) {
	if seq == 0 || seq > math.MaxUint32 {
		return nil, fmt.Errorf("nanobus: nbwp seq %d outside 1..2^32-1", seq)
	}
	return s.sendStep(nbwp.Header{
		Type: nbwp.TypeStep, Flags: nbwp.FlagSeq, Slot: s.slot, Seq: uint32(seq),
	}, words)
}

// SendStep pipelines one unsequenced binary words batch.
func (s *NBWPSession) SendStep(words []uint32) (*StepPending, error) {
	return s.sendStep(nbwp.Header{Type: nbwp.TypeStep, Slot: s.slot}, words)
}

func (s *NBWPSession) sendStep(h nbwp.Header, words []uint32) (*StepPending, error) {
	bp, _ := binBufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	// WriteFrame copies the payload into the connection's buffered
	// writer before send returns, so the buffer can go straight back.
	defer binBufPool.Put(bp)
	buf := nbwp.AppendWords((*bp)[:0], words)
	*bp = buf
	sp := newStepPending(s.nc)
	if err := s.nc.sendPending(&sp.pend, h, buf); err != nil {
		// The entry may have been failed through its done channel by
		// fail(); it cannot be pooled.
		return nil, err
	}
	return sp, nil
}

// StepBinary streams one binary words batch and waits for its ack.
func (s *NBWPSession) StepBinary(ctx context.Context, words []uint32) (StepSummary, error) {
	sp, err := s.SendStep(words)
	if err != nil {
		return StepSummary{}, err
	}
	return sp.Wait(ctx)
}

// StepBinarySeq streams one sequenced binary words batch and waits for
// its ack — the blocking twin of SendStepSeq.
func (s *NBWPSession) StepBinarySeq(ctx context.Context, seq uint64, words []uint32) (StepSummary, error) {
	sp, err := s.SendStepSeq(seq, words)
	if err != nil {
		return StepSummary{}, err
	}
	return sp.Wait(ctx)
}

// StepIdle advances the session n idle cycles.
func (s *NBWPSession) StepIdle(ctx context.Context, n uint64) (StepSummary, error) {
	var buf [8]byte
	nbwp.PutIdle(&buf, n)
	sp := newStepPending(s.nc)
	if err := s.nc.sendPending(&sp.pend, nbwp.Header{Type: nbwp.TypeStepIdle, Slot: s.slot}, buf[:]); err != nil {
		return StepSummary{}, err
	}
	return sp.Wait(ctx)
}

// Result fetches the session outcome, closing the partial sampling
// interval first (like Bus.Finish) unless finish is false. The document
// is the same JSON the HTTP surface serves, so figures are
// bit-identical across transports.
func (s *NBWPSession) Result(ctx context.Context, finish bool) (*Result, error) {
	var flags uint8
	if !finish {
		flags |= nbwp.FlagNoFinish
	}
	var res Result
	p, err := s.nc.send(nbwp.Header{Type: nbwp.TypeResult, Flags: flags, Slot: s.slot},
		nil, decodeJSON(&res))
	if err == nil {
		err = s.nc.wait(ctx, p)
	}
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Checkpoint snapshots the session into the server's checkpoint store.
func (s *NBWPSession) Checkpoint(ctx context.Context) (CheckpointInfo, error) {
	var info CheckpointInfo
	p, err := s.nc.send(nbwp.Header{Type: nbwp.TypeCheckpoint, Slot: s.slot}, nil, decodeJSON(&info))
	if err == nil {
		err = s.nc.wait(ctx, p)
	}
	if err != nil {
		return CheckpointInfo{}, err
	}
	return info, nil
}

// CheckpointDownload snapshots the session and returns the raw envelope
// (works even on servers with no checkpoint store).
func (s *NBWPSession) CheckpointDownload(ctx context.Context) ([]byte, error) {
	var env []byte
	p, err := s.nc.send(nbwp.Header{Type: nbwp.TypeCheckpoint, Flags: nbwp.FlagDownload, Slot: s.slot},
		nil, func(_ nbwp.Header, payload []byte) error {
			env = append([]byte(nil), payload...)
			return nil
		})
	if err == nil {
		err = s.nc.wait(ctx, p)
	}
	if err != nil {
		return nil, err
	}
	return env, nil
}

// Restore rewinds the session to its stored checkpoint; resume
// sequenced steps from Seq+1.
func (s *NBWPSession) Restore(ctx context.Context) (RestoreResponse, error) {
	return s.nc.restore(ctx, s.slot, s.Info.ID, nil)
}

// RestoreFrom restores the session from an envelope previously fetched
// with CheckpointDownload, bypassing the server's store.
func (s *NBWPSession) RestoreFrom(ctx context.Context, envelope []byte) (RestoreResponse, error) {
	return s.nc.restore(ctx, s.slot, s.Info.ID, envelope)
}

// RestoreSession resurrects a session by id onto a fresh slot of this
// connection — the reconnect-after-crash path: the server rebuilds the
// session from its stored checkpoint (or the inline envelope) and binds
// it, so sequenced steps resume from the response's Seq+1.
func (nc *NBWPConn) RestoreSession(ctx context.Context, id string, envelope []byte) (*NBWPSession, RestoreResponse, error) {
	slot, err := nc.allocSlot()
	if err != nil {
		return nil, RestoreResponse{}, err
	}
	resp, err := nc.restore(ctx, slot, id, envelope)
	if err != nil {
		nc.freeSlot(slot)
		return nil, RestoreResponse{}, err
	}
	return &NBWPSession{nc: nc, slot: slot, Info: SessionInfo{ID: id}}, resp, nil
}

func (nc *NBWPConn) restore(ctx context.Context, slot uint8, id string, envelope []byte) (RestoreResponse, error) {
	payload, err := nbwp.AppendRestore(nil, nbwp.Restore{ID: id, Envelope: envelope})
	if err != nil {
		return RestoreResponse{}, err
	}
	var resp RestoreResponse
	p, err := nc.send(nbwp.Header{Type: nbwp.TypeRestore, Slot: slot}, payload, decodeJSON(&resp))
	if err == nil {
		err = nc.wait(ctx, p)
	}
	if err != nil {
		return RestoreResponse{}, err
	}
	return resp, nil
}

// Close deletes the session server-side (GOODBYE) and frees its slot.
func (s *NBWPSession) Close(ctx context.Context) error {
	var resp server.CloseResponse
	p, err := s.nc.send(nbwp.Header{Type: nbwp.TypeGoodbye, Slot: s.slot}, nil, decodeJSON(&resp))
	if err == nil {
		err = s.nc.wait(ctx, p)
	}
	s.nc.freeSlot(s.slot)
	return err
}

// Detach frees the session's slot without closing the server-side
// session (which stays addressable for reattach).
func (s *NBWPSession) Detach() { s.nc.freeSlot(s.slot) }
