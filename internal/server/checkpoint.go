package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"nanobus/internal/blob"
	"nanobus/internal/core"
	"nanobus/internal/wire"
)

// BlobStore persists checkpoint envelopes by session id: context-aware
// Put/Get/List/Delete (see nanobus/internal/blob). In cluster mode the
// configured store is a blob.Replicated fanning out to peer nodes, which
// is how sessions survive the death of the node that wrote them.
type BlobStore = blob.Store

// ValidateEnvelope reports whether data parses as a structurally sound
// NBSE checkpoint envelope (magic, version, section lengths, CRC). It is
// the integrity check a replicated blob store runs before trusting a
// copy — a torn replica is skipped, not restored.
func ValidateEnvelope(data []byte) error {
	_, err := decodeEnvelope(data)
	return err
}

// --- Envelope codec ---------------------------------------------------------

// The server checkpoint envelope wraps a core.MultiSim checkpoint blob
// with everything the service layer needs to resurrect the session in a
// fresh process: the write-ahead sequence number, the words/idle
// counters, and the normalized CreateSessionRequest JSON. It is a sealed
// blob of the shared codec (internal/wire), described once by
// envelope.walk: magic "NBSE", version u16, seq u64, words u64, idle
// u64, cfg (u32 length + JSON bytes), core blob (u32 length + bytes),
// CRC-32 (IEEE) of every preceding byte.
const (
	envelopeMagic   = "NBSE"
	envelopeVersion = 1
	// maxEnvelopeBytes bounds inline restore bodies and decoded section
	// lengths; a session with millions of retained samples should use
	// DropSamples, not a multi-GB checkpoint.
	maxEnvelopeBytes = 64 << 20
	maxCfgBytes      = 1 << 20
)

type envelope struct {
	Seq   uint64
	Words uint64
	Idle  uint64
	Cfg   []byte // normalized CreateSessionRequest JSON
	Core  []byte // core.MultiSim checkpoint blob
}

// walk codes the envelope after its magic. A config section beyond
// maxCfgBytes is corrupt.
func (e *envelope) walk(c *wire.Codec) {
	v := uint16(envelopeVersion)
	c.U16(&v)
	if v != envelopeVersion {
		c.Fail("version %d (want %d)", v, envelopeVersion)
	}
	c.U64(&e.Seq)
	c.U64(&e.Words)
	c.U64(&e.Idle)
	c.Bytes(&e.Cfg, 4)
	if len(e.Cfg) > maxCfgBytes {
		c.Fail("config section of %d bytes exceeds %d", len(e.Cfg), maxCfgBytes)
	}
	c.Bytes(&e.Core, 4)
}

// encode seals the envelope; nil means a section is beyond its bound
// (the config's maxCfgBytes, the core blob's u32 length prefix).
func (e *envelope) encode() []byte {
	c := wire.Sealed(envelopeMagic, 2+3*8+4+len(e.Cfg)+4+len(e.Core))
	e.walk(&c)
	b, err := c.Seal()
	if err != nil {
		return nil
	}
	return b
}

// decodeEnvelope validates and splits an envelope. Structural damage is
// reported as core.ErrCheckpointCorrupt so it maps onto the same wire
// code as a damaged core blob.
func decodeEnvelope(data []byte) (*envelope, error) {
	c, err := wire.Open(data, envelopeMagic)
	e := &envelope{}
	if err == nil {
		e.walk(&c)
		err = c.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: envelope: %w", core.ErrCheckpointCorrupt, err)
	}
	return e, nil
}

// --- POST /v1/sessions/{id}/checkpoint --------------------------------------

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, sess *session) {
	download := r.URL.Query().Get("download") == "1"
	info, data, he := s.checkpointSession(r.Context(), sess, download)
	if he != nil || !download {
		replyJSON(w, info, he)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Nanobus-Checkpoint-Sha256", info.SHA256)
	//nanolint:ignore droppederr the client went away mid-download; the store copy (if any) stands
	_, _ = w.Write(data)
}

// checkpointLocked snapshots the session into an envelope and saves it to
// the store (when configured); a session tainted by a failed sequenced
// batch is refused. The caller must hold the session.
func (s *Server) checkpointLocked(ctx context.Context, sess *session) (CheckpointInfo, []byte, *httpErr) {
	if sess.dirtySeq {
		return CheckpointInfo{}, nil, herr(http.StatusConflict, CodeSeqConflict,
			"a sequenced batch failed mid-apply; restore from a checkpoint first")
	}
	blob, err := sess.sim.Snapshot()
	if err != nil {
		return CheckpointInfo{}, nil, asHTTPErr(err)
	}
	env := envelope{
		Seq:   sess.lastSeq.Load(),
		Words: sess.words.Load(),
		Idle:  sess.idle.Load(),
		Cfg:   sess.reqJSON,
		Core:  blob,
	}
	data := env.encode()
	if data == nil {
		return CheckpointInfo{}, nil, herr(http.StatusInternalServerError, CodeInternal,
			"checkpoint does not fit the envelope's section bounds")
	}
	stored := false
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Put(ctx, sess.id, data); err != nil {
			return CheckpointInfo{}, nil, asHTTPErr(err)
		}
		stored = true
	}
	sess.ckptCycles = sess.sim.Cycles()
	s.checkpointsTotal.Add(1)
	sum := sha256.Sum256(data)
	return CheckpointInfo{
		ID:     sess.id,
		Seq:    env.Seq,
		Cycles: sess.ckptCycles,
		Bytes:  len(data),
		SHA256: hex.EncodeToString(sum[:]),
		Stored: stored,
	}, data, nil
}

// maybeAutoCheckpoint persists the session once it has simulated
// AutoCheckpointCycles cycles past its last checkpoint. Failures are
// counted, not fatal: the stream keeps flowing and the next interval
// retries. The caller must hold the session.
func (s *Server) maybeAutoCheckpoint(ctx context.Context, sess *session) {
	if s.cfg.Store == nil || s.cfg.AutoCheckpointCycles == 0 || sess.dirtySeq {
		return
	}
	if sess.sim.Err() != nil {
		return
	}
	if sess.sim.Cycles()-sess.ckptCycles < s.cfg.AutoCheckpointCycles {
		return
	}
	if _, _, he := s.checkpointLocked(ctx, sess); he != nil {
		s.checkpointFailedTotal.Add(1)
	}
}

// --- PUT /v1/sessions/{id}/restore ------------------------------------------

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	req := restoreReq{id: r.PathValue("id")}
	// An inline octet-stream body overrides the store: it is the
	// ?download=1 envelope coming back.
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		b, err := io.ReadAll(io.LimitReader(r.Body, maxEnvelopeBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "read envelope: "+err.Error())
			return
		}
		req.envelope = b
	}
	resp, he := s.restoreSession(r.Context(), req)
	replyJSON(w, resp, he)
}

// restoreLocked rewinds a live session to the envelope's state. This is
// the recovery path for poisoned simulators and failed ?seq= batches: the
// core Restore clears the poison and the seq counters rewind with it.
// The caller must hold the session.
func (s *Server) restoreLocked(sess *session, env *envelope) (RestoreResponse, *httpErr) {
	if !bytes.Equal(env.Cfg, sess.reqJSON) {
		return RestoreResponse{}, herr(http.StatusConflict, CodeCheckpointMismatch,
			"checkpoint configuration does not match the session")
	}
	if err := sess.sim.Restore(env.Core); err != nil {
		return RestoreResponse{}, asHTTPErr(err)
	}
	s.applyEnvelopeState(sess, env)
	s.restoresTotal.Add(1)
	return RestoreResponse{
		ID:         sess.id,
		Seq:        env.Seq,
		Cycles:     sess.sim.Cycles(),
		Words:      env.Words,
		IdleCycles: env.Idle,
	}, nil
}

// resurrectFrom rebuilds a session that no longer exists — a poisoned pod
// that dropped it, or a process restart — from the envelope's embedded
// configuration and core blob, registering it under its original id so
// clients resume against the same URL (or NBWP slot).
func (s *Server) resurrectFrom(id string, env *envelope) (RestoreResponse, *httpErr) {
	if he := s.admit(); he != nil {
		return RestoreResponse{}, he
	}
	ok := false
	defer func() {
		if !ok {
			s.active.Add(-1)
		}
	}()

	var req CreateSessionRequest
	if err := json.Unmarshal(env.Cfg, &req); err != nil {
		return RestoreResponse{}, herr(http.StatusUnprocessableEntity, CodeCheckpointCorrupt,
			"envelope config: "+err.Error())
	}
	sess, he := s.buildSession(req)
	if he != nil {
		return RestoreResponse{}, he
	}
	if err := sess.sim.Restore(env.Core); err != nil {
		// A failed Restore leaves the simulator untouched; recycle it.
		s.pool.put(sess)
		return RestoreResponse{}, asHTTPErr(err)
	}
	// All session state is set before registration makes it reachable.
	s.applyEnvelopeState(sess, env)
	if !s.registerSession(sess, id) {
		s.pool.put(sess)
		return RestoreResponse{}, herr(http.StatusConflict, CodeSessionBusy,
			"session reappeared during restore; retry")
	}
	ok = true
	s.restoresTotal.Add(1)
	s.resurrectedTotal.Add(1)
	return RestoreResponse{
		ID:          id,
		Seq:         env.Seq,
		Cycles:      sess.sim.Cycles(),
		Words:       env.Words,
		IdleCycles:  env.Idle,
		Resurrected: true,
	}, nil
}

// applyEnvelopeState installs the envelope's service-layer counters on a
// session whose simulator has just been restored. The caller must hold
// the session (or own it exclusively pre-registration).
func (s *Server) applyEnvelopeState(sess *session, env *envelope) {
	sess.words.Store(env.Words)
	sess.idle.Store(env.Idle)
	sess.lastSeq.Store(env.Seq)
	sess.dirtySeq = false
	// A retried duplicate of the checkpointed batch gets an idempotent
	// ack with the restored cumulative counters.
	sess.lastSum = StepSummary{Cycles: env.Words/uint64(sess.sim.Buses()) + env.Idle}
	sess.ckptCycles = sess.sim.Cycles()
	sess.lastMemo = sess.sim.MemoStats()
}
