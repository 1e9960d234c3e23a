package client

import "context"

// This file is the transport-agnostic session surface. Both wire
// protocols address the same server-side session object, so a Session is
// the same handle whichever transport opened it: loadgen, smoke, chaos
// and the cluster Router are written against Session/Transport and stop
// branching on HTTP-vs-NBWP. The concrete types (HTTPSession,
// NBWPSession) remain exported for transport-specific extras — NDJSON
// and sample streaming on HTTP, pipelined sends on NBWP.

// Session is one server-side simulation stream, independent of the
// transport that carries it. Errors are *APIError on both transports,
// so errors.Is against the library sentinels works identically.
type Session interface {
	// ID returns the session id, valid on either transport and across
	// reconnects.
	ID() string
	// StepBinary streams one batch of data words (little-endian uint32
	// on both wires) and waits for its acknowledgement.
	StepBinary(ctx context.Context, words []uint32) (StepSummary, error)
	// StepBinarySeq streams one batch under write-ahead sequence number
	// seq (1-based, strictly consecutive). The server applies each seq
	// exactly once: a replayed batch is acknowledged (Duplicate=true)
	// without re-stepping, so retries never double-count energy.
	StepBinarySeq(ctx context.Context, seq uint64, words []uint32) (StepSummary, error)
	// StepIdle advances the session n idle cycles.
	StepIdle(ctx context.Context, n uint64) (StepSummary, error)
	// Result fetches the session outcome, closing the partial sampling
	// interval first (like Bus.Finish) unless finish is false.
	Result(ctx context.Context, finish bool) (*Result, error)
	// Checkpoint snapshots the session into the server's checkpoint
	// store.
	Checkpoint(ctx context.Context) (CheckpointInfo, error)
	// CheckpointDownload snapshots the session and returns the raw NBSE
	// envelope (works even on store-less servers).
	CheckpointDownload(ctx context.Context) ([]byte, error)
	// Restore rewinds the session to its stored checkpoint; resume
	// sequenced steps from the response's Seq+1.
	Restore(ctx context.Context) (RestoreResponse, error)
	// RestoreFrom restores from an envelope previously fetched with
	// CheckpointDownload, bypassing the server's store.
	RestoreFrom(ctx context.Context, envelope []byte) (RestoreResponse, error)
	// Close deletes the session server-side.
	Close(ctx context.Context) error
}

// PipelinedSession is the optional capability of transports that can
// send step batches without waiting for acknowledgements (NBWP). Callers
// that want pipelining type-assert a Session to it and fall back to the
// blocking calls when the assertion fails.
type PipelinedSession interface {
	Session
	// SendStep pipelines one unsequenced batch; Wait on the returned
	// entry in send order.
	SendStep(words []uint32) (*StepPending, error)
	// SendStepSeq pipelines one sequenced batch.
	SendStepSeq(seq uint64, words []uint32) (*StepPending, error)
}

// Transport opens, reattaches and resurrects sessions on one nanobusd
// node. *Client (HTTP) and *NBWPConn (binary) both implement it.
type Transport interface {
	// OpenSession creates a fresh session.
	OpenSession(ctx context.Context, cfg SessionConfig) (Session, error)
	// AttachSession binds an existing session by id — the reattach path
	// after a reconnect or a handoff from another transport.
	AttachSession(ctx context.Context, id string) (Session, error)
	// Resurrect rebuilds a session by id from the server's checkpoint
	// store (envelope nil) or an inline envelope, and returns the handle
	// plus the restored position; resume sequenced steps from Seq+1.
	Resurrect(ctx context.Context, id string, envelope []byte) (Session, RestoreResponse, error)
}

// Interface conformance, pinned at compile time.
var (
	_ Session          = (*HTTPSession)(nil)
	_ Session          = (*NBWPSession)(nil)
	_ PipelinedSession = (*NBWPSession)(nil)
	_ Transport        = (*Client)(nil)
	_ Transport        = (*NBWPConn)(nil)
)

// OpenSession implements Transport over HTTP.
func (c *Client) OpenSession(ctx context.Context, cfg SessionConfig) (Session, error) {
	return c.CreateSession(ctx, cfg)
}

// AttachSession implements Transport over HTTP. The HTTP transport is
// connectionless, so attaching verifies the session exists by reading
// its status.
func (c *Client) AttachSession(ctx context.Context, id string) (Session, error) {
	s := c.Session(id)
	info, err := s.Status(ctx)
	if err != nil {
		return nil, err
	}
	s.Info = info
	return s, nil
}

// Resurrect implements Transport over HTTP: a restore by id rebuilds the
// session from the server's checkpoint store even when the server no
// longer holds the id (process restart, failover to a replica holder).
func (c *Client) Resurrect(ctx context.Context, id string, envelope []byte) (Session, RestoreResponse, error) {
	s := c.Session(id)
	var (
		resp RestoreResponse
		err  error
	)
	if envelope == nil {
		resp, err = s.Restore(ctx)
	} else {
		resp, err = s.RestoreFrom(ctx, envelope)
	}
	if err != nil {
		return nil, RestoreResponse{}, err
	}
	return s, resp, nil
}

// OpenSession implements Transport over NBWP (no sample streaming; use
// Open directly for an onSample callback).
func (nc *NBWPConn) OpenSession(ctx context.Context, cfg SessionConfig) (Session, error) {
	return nc.Open(ctx, cfg, nil)
}

// AttachSession implements Transport over NBWP, binding the session to a
// fresh slot of this connection.
func (nc *NBWPConn) AttachSession(ctx context.Context, id string) (Session, error) {
	return nc.Attach(ctx, id, nil)
}

// Resurrect implements Transport over NBWP; see RestoreSession.
func (nc *NBWPConn) Resurrect(ctx context.Context, id string, envelope []byte) (Session, RestoreResponse, error) {
	s, resp, err := nc.RestoreSession(ctx, id, envelope, nil)
	if err != nil {
		return nil, RestoreResponse{}, err
	}
	return s, resp, nil
}
