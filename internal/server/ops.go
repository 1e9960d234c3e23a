package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"nanobus/internal/blob"
	"nanobus/internal/core"
)

// This file is the transport-neutral session layer. Each session
// operation — open, step, result, checkpoint, restore, close — is one
// function taking a typed request and returning a typed response or an
// *httpErr (status, code, owner hint). The HTTP handlers and the NBWP
// frame handlers are codecs around it: they parse the request, call the
// operation and encode the reply, so the two transports cannot drift.

// maxCreateBytes bounds one create-request document on both transports.
const maxCreateBytes = 1 << 20

// bounded applies the server-side RequestTimeout, if any, to ctx.
func (s *Server) bounded(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return ctx, func() {}
}

// withSession runs op with sess held, under the policy every session
// operation shares: the RequestTimeout bound on ctx, the shard queue
// gauge, the AcquireTimeout-bounded acquire (409/session_busy), the
// closed check, and the memo harvest once op returns.
func (s *Server) withSession(ctx context.Context, sess *session, op func(ctx context.Context) *httpErr) *httpErr {
	ctx, cancel := s.bounded(ctx)
	defer cancel()
	sh := s.shards[sess.info.Shard]
	sh.queue.Add(1)
	defer sh.queue.Add(-1)
	if err := s.acquireSession(ctx, sess); err != nil {
		return herr(http.StatusConflict, CodeSessionBusy, "session busy: "+err.Error())
	}
	defer sess.release()
	if sess.closed {
		return s.closedErr(sess.id)
	}
	he := op(ctx)
	if !sess.closed {
		// A closed session's simulator is back in the pool (it was
		// harvested on the way), so it is no longer this session's.
		s.harvestMemo(sess)
	}
	return he
}

// acquireSession takes the session's simulator, waiting at most the
// server-side AcquireTimeout when it is busy. The bound must not come
// from the client context: HTTP/1 servers only notice a client
// disconnect once the request body has been read, and operations
// acquire before touching the body, so an unbounded wait on a busy
// session could strand the connection past the client's own deadline.
func (s *Server) acquireSession(ctx context.Context, sess *session) error {
	if sess.tryAcquire() {
		// Uncontended: no timer to arm.
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.AcquireTimeout)
	defer cancel()
	return sess.acquire(ctx)
}

// lookup resolves id to a live session, or to the not-found (or cluster
// redirect) error.
func (s *Server) lookup(id string) (*session, *httpErr) {
	sess, ok := s.find(id)
	if !ok {
		return nil, s.notFoundErr(id)
	}
	return sess, nil
}

// --- Open ---------------------------------------------------------------------

// decodeCreateRequest reads one CreateSessionRequest document, bounded
// by maxCreateBytes and strict about unknown fields.
func decodeCreateRequest(r io.Reader) (CreateSessionRequest, *httpErr) {
	var req CreateSessionRequest
	dec := json.NewDecoder(io.LimitReader(r, maxCreateBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, herr(http.StatusBadRequest, CodeBadRequest, "decode request: "+err.Error())
	}
	return req, nil
}

// admit claims one of the MaxSessions places unless the server is
// draining or full; a caller whose session then fails to register must
// give the place back (s.active.Add(-1)).
func (s *Server) admit() *httpErr {
	if s.draining.Load() {
		return herr(http.StatusServiceUnavailable, CodeDraining, "server is draining")
	}
	if s.active.Add(1) > int64(s.cfg.MaxSessions) {
		s.active.Add(-1)
		return herr(http.StatusServiceUnavailable, CodeServerFull,
			fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions))
	}
	return nil
}

// openSession opens a session: admission, the simulator build (or pool
// recycle), and registration under a fresh id.
func (s *Server) openSession(req CreateSessionRequest) (*session, *httpErr) {
	if he := s.admit(); he != nil {
		return nil, he
	}
	sess, he := s.buildSession(req)
	if he == nil {
		he = s.registerFresh(sess)
	}
	if he != nil {
		s.active.Add(-1)
		return nil, he
	}
	return sess, nil
}

// --- Step ---------------------------------------------------------------------

// stepReq is one step operation. The codec supplies how words reach the
// simulator (feed) and how a closed sampling interval goes out (emit).
type stepReq struct {
	// seq is the write-ahead sequence number; 0 means unsequenced.
	seq uint64
	// feed steps the batch, adding what it consumed to sum. It runs once,
	// after every check has passed.
	feed func(ctx context.Context, sum *StepSummary) error
	// emit writes one sample to the client; nil counts samples only.
	emit func(bus int, cs core.Sample)
}

// stepSession applies one batch under the ?seq= write-ahead contract: a
// seq at or below the last acknowledged one is a duplicate, acked with
// the cached summary and never re-stepped; a seq past the next one is a
// gap; a batch that died mid-apply blocks all sequenced traffic until a
// restore. Successful steps may auto-checkpoint.
func (s *Server) stepSession(ctx context.Context, sess *session, req stepReq) (StepSummary, *httpErr) {
	var sum StepSummary
	he := s.withSession(ctx, sess, func(ctx context.Context) *httpErr {
		if req.seq != 0 {
			if sess.dirtySeq {
				return herr(http.StatusConflict, CodeSeqConflict,
					"a sequenced batch failed mid-apply; restore from a checkpoint before retrying")
			}
			last := sess.lastSeq.Load()
			switch {
			case req.seq <= last:
				if req.seq == last {
					sum = sess.lastSum
				}
				sum.Seq, sum.Duplicate, sum.Cycles = req.seq, true, sess.cycleCount()
				s.seqDuplicatesTotal.Add(1)
				return nil
			case req.seq > last+1:
				return herr(http.StatusConflict, CodeSeqGap,
					fmt.Sprintf("seq %d skips ahead; expected %d", req.seq, last+1))
			}
			// seq == last+1: mark the write-ahead intent before any word
			// reaches the simulator. If the batch dies mid-apply the flag
			// stays set — the partial application can never be silently
			// replayed.
			sess.dirtySeq = true
		}
		emit := req.emit
		sess.sim.SetOnBusSample(func(bus int, cs core.Sample) {
			sum.Samples++
			s.samplesTotal.Add(1)
			if emit != nil {
				emit(bus, cs)
			}
		})
		defer sess.sim.SetOnBusSample(nil)
		err := req.feed(ctx, &sum)
		sum.Cycles = sess.cycleCount()
		if err != nil {
			return asHTTPErr(err)
		}
		if req.seq != 0 {
			sess.dirtySeq = false
			sess.lastSeq.Store(req.seq)
			sum.Seq = req.seq
			sess.lastSum = sum
		}
		s.maybeAutoCheckpoint(ctx, sess)
		return nil
	})
	return sum, he
}

// --- Result -------------------------------------------------------------------

// sessionResult assembles the session's Result, finishing the partial
// sampling interval first unless finish is false.
func (s *Server) sessionResult(ctx context.Context, sess *session, finish bool) (Result, *httpErr) {
	var res Result
	he := s.withSession(ctx, sess, func(context.Context) *httpErr {
		var rhe *httpErr
		res, rhe = s.resultLocked(sess, finish)
		return rhe
	})
	return res, he
}

// --- Checkpoint ---------------------------------------------------------------

// checkpointSession snapshots the session into an envelope, saved to the
// store when one is configured. A download request works store-less and
// hands the envelope back.
func (s *Server) checkpointSession(ctx context.Context, sess *session, download bool) (CheckpointInfo, []byte, *httpErr) {
	var (
		info CheckpointInfo
		data []byte
	)
	he := s.withSession(ctx, sess, func(ctx context.Context) *httpErr {
		// After withSession's closed check, so a closed session is gone
		// on an NBWP slot still bound to it as it is over HTTP.
		if s.cfg.Store == nil && !download {
			return herr(http.StatusNotImplemented, CodeNoStore,
				"no checkpoint store configured; download the envelope inline instead")
		}
		var che *httpErr
		info, data, che = s.checkpointLocked(ctx, sess)
		return che
	})
	return info, data, he
}

// --- Restore ------------------------------------------------------------------

// restoreReq names the session to restore and, optionally, the envelope
// to restore it from; an empty envelope is fetched from the store.
type restoreReq struct {
	id       string
	envelope []byte
}

// restoreSession rewinds a live session in place, or resurrects a
// missing one, from the request's envelope.
func (s *Server) restoreSession(ctx context.Context, req restoreReq) (RestoreResponse, *httpErr) {
	ctx, cancel := s.bounded(ctx)
	defer cancel()
	data := req.envelope
	if len(data) > maxEnvelopeBytes {
		return RestoreResponse{}, herr(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			fmt.Sprintf("envelope exceeds %d bytes", maxEnvelopeBytes))
	}
	if len(data) == 0 {
		if s.cfg.Store == nil {
			return RestoreResponse{}, herr(http.StatusNotImplemented, CodeNoStore,
				"no checkpoint store configured and no inline envelope sent")
		}
		b, err := s.cfg.Store.Get(ctx, req.id)
		if errors.Is(err, blob.ErrNotFound) {
			return RestoreResponse{}, herr(http.StatusNotFound, CodeNoCheckpoint, err.Error())
		}
		if err != nil {
			return RestoreResponse{}, herr(http.StatusInternalServerError, CodeInternal, err.Error())
		}
		data = b
	}
	env, err := decodeEnvelope(data)
	if err != nil {
		return RestoreResponse{}, asHTTPErr(err)
	}
	sess, ok := s.find(req.id)
	if !ok {
		return s.resurrectFrom(req.id, env)
	}
	var resp RestoreResponse
	he := s.withSession(ctx, sess, func(context.Context) *httpErr {
		var rhe *httpErr
		resp, rhe = s.restoreLocked(sess, env)
		return rhe
	})
	return resp, he
}

// --- Close --------------------------------------------------------------------

// closeSession tears a session down: deregisters it, drops its stored
// checkpoint (a deleted session must not be resurrectable), and recycles
// the simulator.
func (s *Server) closeSession(ctx context.Context, sess *session) (CloseResponse, *httpErr) {
	var resp CloseResponse
	he := s.withSession(ctx, sess, func(ctx context.Context) *httpErr {
		resp = s.deregister(sess)
		if s.cfg.Store != nil {
			//nanolint:ignore droppederr best-effort cleanup; a stale envelope only wastes store space
			_ = s.cfg.Store.Delete(ctx, sess.id)
		}
		return nil
	})
	return resp, he
}
