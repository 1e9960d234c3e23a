package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"nanobus/internal/core"
	"nanobus/internal/faultinject"
	"nanobus/internal/nbwp"
)

// This file is the NBWP transport: a codec over the same session
// operations as the v1 HTTP surface (ops.go) — frames are parsed into
// typed requests and the replies encoded as ACK, SAMPLE and ERROR frames
// — behind persistent framed TCP instead of per-batch requests. One
// goroutine serves each connection, processing frames strictly in
// arrival order and answering every client frame with exactly one ACK or
// ERROR frame, so pipelined clients correlate responses by FIFO
// position. Throughput comes from pipelining: the client streams STEP frames without waiting, acks
// accumulate in the connection's buffered writer, and the writer is
// flushed only when the read side would block — a full round-trip per
// batch becomes one syscall per burst in each direction.

// nbwpBufSize sizes each connection's buffered reader and writer.
const nbwpBufSize = 64 << 10

// ServeNBWP accepts NBWP connections on lis until the listener closes;
// it always returns a non-nil error (net.ErrClosed after Drain). Run it
// on its own goroutine beside http.Server.Serve; both surfaces share one
// session table, so a session created over HTTP can be attached over
// NBWP and vice versa.
func (s *Server) ServeNBWP(lis net.Listener) error {
	s.nbwpMu.Lock()
	if s.draining.Load() {
		s.nbwpMu.Unlock()
		//nanolint:ignore droppederr the listener is being refused, not used; close is best-effort
		_ = lis.Close()
		return net.ErrClosed
	}
	s.nbwpLis = append(s.nbwpLis, lis)
	s.nbwpMu.Unlock()
	for {
		c, err := lis.Accept()
		if err != nil {
			return err
		}
		if s.draining.Load() {
			// Drain closed the listener, but a connection already in the
			// accept queue can slip through; refuse it.
			//nanolint:ignore droppederr refused connection; nothing to report to
			_ = c.Close()
			continue
		}
		s.nbwpWG.Add(1)
		go s.serveNBWPConn(c)
	}
}

// ShutdownNBWP waits for every NBWP connection to finish its in-flight
// pipelined work and close — call Drain first so clients get DRAIN
// frames and stop sending. When ctx expires the remaining connections
// are force-closed and their contexts canceled; ShutdownNBWP still waits
// for the goroutines to unwind before returning ctx's error.
func (s *Server) ShutdownNBWP(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.nbwpWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.nbwpMu.Lock()
	for nc := range s.nbwpConns {
		nc.cancel()
		//nanolint:ignore droppederr force-close on shutdown deadline; the error has nowhere to go
		_ = nc.c.Close()
	}
	s.nbwpMu.Unlock()
	<-done
	return ctx.Err()
}

// drainNBWP stops the accept loops and tells every live connection to
// wind down. Called by Drain.
func (s *Server) drainNBWP() {
	s.nbwpMu.Lock()
	lis := s.nbwpLis
	s.nbwpLis = nil
	conns := make([]*nbwpConn, 0, len(s.nbwpConns))
	for nc := range s.nbwpConns {
		conns = append(conns, nc)
	}
	s.nbwpMu.Unlock()
	for _, l := range lis {
		//nanolint:ignore droppederr closing a listener during drain; the accept loop reports the exit
		_ = l.Close()
	}
	for _, nc := range conns {
		nc.sendDrain()
	}
}

// nbwpConn is one NBWP connection: up to 255 sessions multiplexed over
// persistent TCP, served by a single goroutine in frame order.
type nbwpConn struct {
	s      *Server
	c      net.Conn
	ctx    context.Context
	cancel context.CancelFunc
	br     *bufio.Reader
	fr     nbwp.FrameReader

	// wmu serializes frame writes and flushes between the connection
	// goroutine (acks, samples) and Drain's broadcast goroutine.
	wmu sync.Mutex
	bw  *bufio.Writer
	fw  nbwp.FrameWriter

	// slots maps the header slot byte onto bound sessions; stream marks
	// slots opened with FlagStream (SAMPLE frames wanted).
	slots  [256]*session
	stream [256]bool

	// payload is the reused control-plane response buffer; ackBuf is the
	// fixed STEP ack scratch (a struct field so the hot path stays off
	// the heap); words is the lazily-grown fallback for the rare
	// unaligned STEP payload nbwp.Words cannot view in place.
	payload []byte
	ackBuf  [nbwp.StepAckLen]byte
	words   []uint32

	drained atomic.Bool
}

func (s *Server) serveNBWPConn(c net.Conn) {
	defer s.nbwpWG.Done()
	ctx, cancel := context.WithCancel(context.Background())
	nc := &nbwpConn{
		s:      s,
		c:      c,
		ctx:    ctx,
		cancel: cancel,
		br:     bufio.NewReaderSize(c, nbwpBufSize),
		bw:     bufio.NewWriterSize(c, nbwpBufSize),
	}
	nc.fr = nbwp.FrameReader{R: nc.br, Max: nbwp.MaxPayload}
	nc.fw = nbwp.FrameWriter{W: nc.bw}

	s.nbwpMu.Lock()
	s.nbwpConns[nc] = struct{}{}
	draining := s.draining.Load()
	s.nbwpMu.Unlock()
	s.nbwpConnsTotal.Add(1)
	defer func() {
		cancel()
		s.nbwpMu.Lock()
		delete(s.nbwpConns, nc)
		s.nbwpMu.Unlock()
		//nanolint:ignore droppederr the connection is ending either way; close is best-effort
		_ = c.Close()
	}()
	if draining {
		// The connection raced Drain's broadcast; tell it directly.
		nc.sendDrain()
	}
	nc.serve()
}

// serve is the connection loop: flush pending acks when the next read
// would block, read one frame, dispatch it. Dispatch reporting false
// (GOODBYE, write failure) ends the connection; the final flush pushes
// out whatever the last burst produced.
func (nc *nbwpConn) serve() {
	defer nc.flush()
	var h nbwp.Header
	for {
		if nc.br.Buffered() == 0 {
			// The pipelined burst is consumed; push its acks before
			// blocking so a waiting client always makes progress.
			if !nc.flush() {
				return
			}
		}
		payload, err := nc.fr.ReadFrame(&h)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				// Framing is unrecoverable after a damaged header; report
				// once and hang up.
				nc.reply(nbwp.Header{}, http.StatusBadRequest, CodeBadRequest, err.Error())
			}
			return
		}
		nc.s.nbwpFramesIn.Add(1)
		if !nc.dispatch(h, payload) {
			return
		}
	}
}

func (nc *nbwpConn) flush() bool {
	nc.wmu.Lock()
	err := nc.bw.Flush()
	nc.wmu.Unlock()
	return err == nil
}

func (nc *nbwpConn) dispatch(h nbwp.Header, payload []byte) bool {
	switch h.Type {
	case nbwp.TypeHello:
		// Version agreement is implicit: a mismatched header already
		// failed the frame codec.
		return nc.ack(h, 0, nil)
	case nbwp.TypeOpen:
		return nc.handleOpen(h, payload)
	case nbwp.TypeStep, nbwp.TypeStepIdle:
		return nc.handleStep(h, payload)
	case nbwp.TypeResult:
		return nc.handleResult(h)
	case nbwp.TypeCheckpoint:
		return nc.handleCheckpoint(h)
	case nbwp.TypeRestore:
		return nc.handleRestore(h, payload)
	case nbwp.TypeGoodbye:
		return nc.handleGoodbye(h)
	default:
		return nc.reply(h, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("unknown frame type %#x", uint8(h.Type)))
	}
}

// --- Frame write helpers -----------------------------------------------------

// writeFrame writes one frame into the buffered writer under wmu; false
// means the connection is broken and the caller should unwind.
func (nc *nbwpConn) writeFrame(h nbwp.Header, payload []byte) bool {
	nc.wmu.Lock()
	err := nc.fw.WriteFrame(h, payload)
	nc.wmu.Unlock()
	if err != nil {
		return false
	}
	nc.s.nbwpFramesOut.Add(1)
	return true
}

// ack answers the frame req with an ACK echoing its slot and seq.
func (nc *nbwpConn) ack(req nbwp.Header, flags uint8, payload []byte) bool {
	return nc.writeFrame(nbwp.Header{Type: nbwp.TypeAck, Flags: flags, Slot: req.Slot, Seq: req.Seq}, payload)
}

// ackJSON acks req with a JSON document payload — the same encoding/json
// serialization as the HTTP surface, so control-plane documents are
// identical across transports.
func (nc *nbwpConn) ackJSON(req nbwp.Header, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return nc.reply(req, http.StatusInternalServerError, CodeInternal, err.Error())
	}
	return nc.ack(req, 0, data)
}

// reply answers req with an ERROR frame carrying the v1 status and code.
func (nc *nbwpConn) reply(req nbwp.Header, status int, code, msg string) bool {
	return nc.replyErr(req, herr(status, code, msg))
}

// replyErr answers req with he, carrying the owner hint (as the same
// JSON OwnerInfo document the HTTP surface embeds) when a cluster
// redirect set one.
func (nc *nbwpConn) replyErr(req nbwp.Header, he *httpErr) bool {
	we := nbwp.WireError{Status: he.status, Code: he.code, Msg: he.msg}
	if he.owner != nil {
		if b, err := json.Marshal(he.owner); err == nil {
			we.Owner = string(b)
		}
	}
	var err error
	if nc.payload, err = nbwp.AppendError(nc.payload[:0], we); err != nil {
		// Only an owner hint beyond its u16 prefix gets here; the retry
		// carries none.
		return nc.reply(req, http.StatusInternalServerError, CodeInternal, err.Error())
	}
	nc.s.nbwpErrorsTotal.Add(1)
	return nc.writeFrame(nbwp.Header{Type: nbwp.TypeError, Slot: req.Slot, Seq: req.Seq}, nc.payload)
}

// answer acks req with v as a JSON document, or answers he when set.
func (nc *nbwpConn) answer(req nbwp.Header, v any, he *httpErr) bool {
	if he != nil {
		return nc.replyErr(req, he)
	}
	return nc.ackJSON(req, v)
}

// sendDrain broadcasts the unsolicited DRAIN frame once, flushing so it
// reaches the client even mid-burst.
func (nc *nbwpConn) sendDrain() {
	if !nc.drained.CompareAndSwap(false, true) {
		return
	}
	nc.wmu.Lock()
	//nanolint:ignore droppederr drain notice is best-effort; a dead connection drains itself
	_ = nc.fw.WriteFrame(nbwp.Header{Type: nbwp.TypeDrain}, nil)
	//nanolint:ignore droppederr drain notice is best-effort; a dead connection drains itself
	_ = nc.bw.Flush()
	nc.wmu.Unlock()
}

// --- Slot helpers ------------------------------------------------------------

// slotSession resolves the frame's slot to its bound session.
func (nc *nbwpConn) slotSession(h nbwp.Header) (*session, *httpErr) {
	if h.Slot == 0 {
		return nil, herr(http.StatusBadRequest, CodeBadRequest, "frame needs a session slot (1-255)")
	}
	sess := nc.slots[h.Slot]
	if sess == nil {
		return nil, herr(http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("slot %d is not bound; OPEN it first", h.Slot))
	}
	return sess, nil
}

// --- OPEN --------------------------------------------------------------------

func (nc *nbwpConn) handleOpen(h nbwp.Header, payload []byte) bool {
	if h.Slot == 0 {
		return nc.reply(h, http.StatusBadRequest, CodeBadRequest, "OPEN needs a session slot (1-255)")
	}
	if nc.slots[h.Slot] != nil {
		return nc.reply(h, http.StatusConflict, CodeBadRequest,
			fmt.Sprintf("slot %d is already bound", h.Slot))
	}
	var (
		sess *session
		he   *httpErr
	)
	if h.Flags&nbwp.FlagAttach != 0 {
		sess, he = nc.s.lookup(string(payload))
	} else {
		var req CreateSessionRequest
		if req, he = decodeCreateRequest(bytes.NewReader(payload)); he == nil {
			sess, he = nc.s.openSession(req)
		}
	}
	if he != nil {
		return nc.replyErr(h, he)
	}
	nc.slots[h.Slot] = sess
	nc.stream[h.Slot] = h.Flags&nbwp.FlagStream != 0
	return nc.ackJSON(h, sess.liveInfo())
}

// --- STEP / STEP_IDLE --------------------------------------------------------

// handleStep is the hot path: parse one pipelined batch, step it through
// the shared operation, and ack it. A STEP frame is one complete batch.
// Its size and row alignment, the failpoint and the words themselves go
// through feed, after the closed and write-ahead checks, as on HTTP.
func (nc *nbwpConn) handleStep(h nbwp.Header, payload []byte) bool {
	sess, he := nc.slotSession(h)
	if he != nil {
		return nc.replyErr(h, he)
	}
	var req stepReq
	if h.Flags&nbwp.FlagSeq != 0 {
		if h.Seq == 0 {
			return nc.reply(h, http.StatusBadRequest, CodeBadRequest, "seq must be a positive integer")
		}
		req.seq = uint64(h.Seq)
	}
	if h.Type == nbwp.TypeStep {
		n := len(payload) / 4
		if len(payload)%4 != 0 {
			return nc.reply(h, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("binary body length is not a multiple of 4 (%d trailing bytes)", len(payload)%4))
		}
		req.feed = func(ctx context.Context, sum *StepSummary) error {
			if n > nc.s.cfg.MaxBatchWords {
				return herr(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
					fmt.Sprintf("batch of %d words exceeds the %d-word limit", n, nc.s.cfg.MaxBatchWords))
			}
			// An empty batch has nothing to decode, as an empty HTTP
			// binary body has no chunk.
			if n == 0 {
				return nil
			}
			// Chaos harnesses arm this to fail an ingest batch mid-stream —
			// the same failpoint as the HTTP binary path.
			if ferr := faultinject.Hit("server.ingest.decode"); ferr != nil {
				return herr(http.StatusBadRequest, CodeBadRequest, "decode binary batch: "+ferr.Error())
			}
			if cap(nc.words) < n {
				nc.words = make([]uint32, n)
			}
			return nc.s.stepWords(ctx, sess, nbwp.Words(nc.words, payload), sum)
		}
	} else {
		idle, perr := nbwp.ParseIdle(payload)
		if perr != nil {
			return nc.reply(h, http.StatusBadRequest, CodeBadRequest, perr.Error())
		}
		req.feed = func(ctx context.Context, sum *StepSummary) error {
			if idle == 0 {
				return nil
			}
			return nc.s.stepIdle(ctx, sess, idle, sum)
		}
	}
	if nc.stream[h.Slot] {
		req.emit = nc.sampleWriter(h.Slot, sess)
	}

	sum, he := nc.s.stepSession(nc.ctx, sess, req)
	if he != nil {
		return nc.replyErr(h, he)
	}
	var flags uint8
	if sum.Duplicate {
		flags = nbwp.FlagDuplicate
	} else {
		nc.s.nbwpStepFrames.Add(1)
	}
	nbwp.PutStepAck(&nc.ackBuf, nbwp.StepAck{
		Words: sum.Words, Idle: sum.Idle, Cycles: sum.Cycles, Samples: sum.Samples,
	})
	return nc.ack(h, flags, nc.ackBuf[:])
}

// sampleWriter streams samples for slot as SAMPLE frames interleaved
// ahead of the batch's ack, append-encoded into the connection's reused
// buffer. The frame flags name the session's layout: the bus index for
// multi-bus sessions, the encoder tail for adaptive ones. After a failed
// encode or write the rest of the batch's samples are dropped.
func (nc *nbwpConn) sampleWriter(slot uint8, sess *session) func(bus int, cs core.Sample) {
	var flags uint8
	if sess.sim.Buses() > 1 {
		flags |= nbwp.FlagMultiSample
	}
	if sess.sim.Adaptive() {
		flags |= nbwp.FlagAdaptiveSample
	}
	writeOK := true
	return func(bus int, cs core.Sample) {
		if !writeOK {
			return
		}
		ns := nbwp.Sample(fromCoreSample(bus, cs))
		var err error
		nc.payload, err = nbwp.AppendSample(nc.payload[:0], flags, &ns)
		writeOK = err == nil && nc.writeFrame(nbwp.Header{Type: nbwp.TypeSample, Flags: flags, Slot: slot}, nc.payload)
	}
}

// --- RESULT ------------------------------------------------------------------

func (nc *nbwpConn) handleResult(h nbwp.Header) bool {
	sess, he := nc.slotSession(h)
	if he != nil {
		return nc.replyErr(h, he)
	}
	res, he := nc.s.sessionResult(nc.ctx, sess, h.Flags&nbwp.FlagNoFinish == 0)
	return nc.answer(h, res, he)
}

// --- CHECKPOINT --------------------------------------------------------------

func (nc *nbwpConn) handleCheckpoint(h nbwp.Header) bool {
	sess, he := nc.slotSession(h)
	if he != nil {
		return nc.replyErr(h, he)
	}
	download := h.Flags&nbwp.FlagDownload != 0
	info, data, he := nc.s.checkpointSession(nc.ctx, sess, download)
	if he != nil || !download {
		return nc.answer(h, info, he)
	}
	return nc.ack(h, nbwp.FlagDownload, data)
}

// --- RESTORE -----------------------------------------------------------------

func (nc *nbwpConn) handleRestore(h nbwp.Header, payload []byte) bool {
	if h.Slot == 0 {
		return nc.reply(h, http.StatusBadRequest, CodeBadRequest, "RESTORE needs a session slot (1-255)")
	}
	rr, perr := nbwp.ParseRestore(payload)
	if perr != nil {
		return nc.reply(h, http.StatusBadRequest, CodeBadRequest, perr.Error())
	}
	id := rr.ID
	if id == "" {
		bound := nc.slots[h.Slot]
		if bound == nil {
			return nc.reply(h, http.StatusNotFound, CodeNotFound,
				fmt.Sprintf("slot %d is not bound and the RESTORE names no session", h.Slot))
		}
		id = bound.id
	}
	resp, he := nc.s.restoreSession(nc.ctx, restoreReq{id: id, envelope: rr.Envelope})
	if he != nil {
		return nc.replyErr(h, he)
	}
	// Bind (or rebind) the slot to the restored session so the stream
	// resumes on this connection without a separate OPEN.
	if sess, ok := nc.s.find(id); ok {
		nc.slots[h.Slot] = sess
	}
	return nc.ackJSON(h, resp)
}

// --- GOODBYE -----------------------------------------------------------------

func (nc *nbwpConn) handleGoodbye(h nbwp.Header) bool {
	if h.Slot == 0 {
		// Connection goodbye: ack, then hang up. Bound sessions stay
		// registered — like an HTTP client going away, they remain
		// addressable for reattach.
		nc.ack(h, 0, nil)
		return false
	}
	sess, he := nc.slotSession(h)
	if he != nil {
		return nc.replyErr(h, he)
	}
	resp, he := nc.s.closeSession(nc.ctx, sess)
	if he == nil || he.code != CodeSessionBusy {
		// Closed now or already gone: either way the slot is free.
		nc.slots[h.Slot] = nil
		nc.stream[h.Slot] = false
	}
	return nc.answer(h, resp, he)
}
