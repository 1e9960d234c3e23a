package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"nanobus/internal/nbwp"
	"nanobus/internal/server"
)

// Durability wire types, re-exported like the rest of the v1 surface.
type (
	// CheckpointInfo acknowledges a checkpoint.
	CheckpointInfo = server.CheckpointInfo
	// RestoreResponse acknowledges a restore; resume from Seq+1.
	RestoreResponse = server.RestoreResponse
)

// RetryPolicy shapes the exponential backoff applied to idempotent
// requests when installed with WithRetry. Attempt n (0-based) sleeps
// min(BaseDelay<<n, MaxDelay) scaled by a uniform [0.5, 1.5) jitter so
// a fleet of resuming clients does not stampede a restarting server.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (default 4).
	MaxAttempts int
	// BaseDelay seeds the backoff (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// jitterMu guards jitterRand; backoff jitter does not need determinism,
// only independence between concurrent sessions.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay << attempt
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	jitterMu.Lock()
	f := 0.5 + jitterRand.Float64()
	jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// WithRetry makes the client retry idempotent requests (status reads,
// checkpoints, restores, and ?seq= sequenced steps) under p. Requests
// whose replay could double-apply work — session creation and
// unsequenced steps — are never retried.
func WithRetry(p RetryPolicy) Option {
	p = p.withDefaults()
	return func(c *Client) { c.retry = &p }
}

// retriable reports whether err is worth retrying on an idempotent
// request: transport-level failures (the server may be mid-restart) and
// the transient service statuses. Typed application errors — poisoned,
// seq conflicts, corrupt checkpoints — are terminal: retrying cannot
// change the outcome, only a restore can.
func retriable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		// Cluster redirects are not retriable in place: replaying the
		// same request at the same node can only yield the same
		// redirect. The Router follows the Owner contact instead.
		if ae.Code == server.CodeNotOwner || ae.Code == server.CodeMoved {
			return false
		}
		switch ae.StatusCode {
		case http.StatusRequestTimeout, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return ae.Code == server.CodeSessionBusy
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// doRetriable runs build+do under the client's retry policy (or once
// when none is installed). build must return a fresh request each call:
// a body reader cannot be replayed after a failed attempt.
func (c *Client) doRetriable(ctx context.Context, build func() (*http.Request, error), out any) error {
	if c.retry == nil {
		req, err := build()
		if err != nil {
			return err
		}
		return c.do(req, out)
	}
	p := *c.retry
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(p.delay(attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		req, err := build()
		if err != nil {
			return err
		}
		err = c.do(req, out)
		if err == nil {
			return nil
		}
		if !retriable(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("nanobusd: giving up after %d attempts: %w", p.MaxAttempts, lastErr)
}

// Session reattaches to an existing session by id — after a process
// restart, or on a client that did not create the session. Info carries
// only the id until Status refreshes it.
func (c *Client) Session(id string) *HTTPSession {
	return &HTTPSession{c: c, Info: SessionInfo{ID: id}}
}

// Checkpoint snapshots the session into the server's checkpoint store
// and returns the envelope's identity.
func (s *HTTPSession) Checkpoint(ctx context.Context) (CheckpointInfo, error) {
	build := func() (*http.Request, error) {
		return s.c.newRequest(ctx, http.MethodPost, s.path("/checkpoint"), nil)
	}
	var info CheckpointInfo
	if err := s.c.doRetriable(ctx, build, &info); err != nil {
		return CheckpointInfo{}, err
	}
	return info, nil
}

// CheckpointDownload snapshots the session and returns the raw envelope
// (works even on servers with no checkpoint store); feed it back through
// RestoreFrom.
func (s *HTTPSession) CheckpointDownload(ctx context.Context) ([]byte, error) {
	req, err := s.c.newRequest(ctx, http.MethodPost, s.path("/checkpoint?download=1"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer closeQuietly(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Restore rewinds the session to its stored checkpoint — or resurrects
// it from the store when the server no longer knows the id (poisoned
// simulator, process restart). Resume sequenced steps from Seq+1.
func (s *HTTPSession) Restore(ctx context.Context) (RestoreResponse, error) {
	build := func() (*http.Request, error) {
		return s.c.newRequest(ctx, http.MethodPut, s.path("/restore"), nil)
	}
	var res RestoreResponse
	if err := s.c.doRetriable(ctx, build, &res); err != nil {
		return RestoreResponse{}, err
	}
	return res, nil
}

// RestoreFrom restores the session from an envelope previously fetched
// with CheckpointDownload, bypassing the server's store.
func (s *HTTPSession) RestoreFrom(ctx context.Context, envelope []byte) (RestoreResponse, error) {
	build := func() (*http.Request, error) {
		req, err := s.c.newRequest(ctx, http.MethodPut, s.path("/restore"), bytes.NewReader(envelope))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		return req, nil
	}
	var res RestoreResponse
	if err := s.c.doRetriable(ctx, build, &res); err != nil {
		return RestoreResponse{}, err
	}
	return res, nil
}

// StepBinarySeq streams words in the binary format under write-ahead
// sequence number seq (1-based, strictly consecutive per session). The
// server applies each seq exactly once, so this call is safe to retry:
// a replayed batch is acknowledged (Duplicate=true) without re-stepping,
// and energy is never double-counted.
func (s *HTTPSession) StepBinarySeq(ctx context.Context, seq uint64, words []uint32) (StepSummary, error) {
	buf := nbwp.AppendWords(make([]byte, 0, 4*len(words)), words)
	build := func() (*http.Request, error) {
		req, err := s.c.newRequest(ctx, http.MethodPost, s.seqPath(seq), bytes.NewReader(buf))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		return req, nil
	}
	var sum StepSummary
	if err := s.c.doRetriable(ctx, build, &sum); err != nil {
		return StepSummary{}, err
	}
	return sum, nil
}

// StepLinesSeq streams word/idle batches as one NDJSON request under
// write-ahead sequence number seq; see StepBinarySeq for the replay
// semantics.
func (s *HTTPSession) StepLinesSeq(ctx context.Context, seq uint64, lines []StepLine) (StepSummary, error) {
	body, err := encodeLines(lines)
	if err != nil {
		return StepSummary{}, err
	}
	build := func() (*http.Request, error) {
		req, err := s.c.newRequest(ctx, http.MethodPost, s.seqPath(seq), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		return req, nil
	}
	var sum StepSummary
	if err := s.c.doRetriable(ctx, build, &sum); err != nil {
		return StepSummary{}, err
	}
	return sum, nil
}

func (s *HTTPSession) seqPath(seq uint64) string {
	return s.path("/step?seq=" + strconv.FormatUint(seq, 10))
}
