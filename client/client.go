// Package client is the thin Go client for nanobusd, the streaming
// bus-simulation service (internal/server). It speaks the v1 wire
// protocol and maps the service's typed error codes back onto the
// library's sentinels, so errors.Is(err, nanobus.ErrUnknownEncoding) works
// the same against the service as against the in-process library.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/nbwp"
	"nanobus/internal/server"
)

// Wire types, re-exported so callers need only this package.
type (
	// SessionConfig opens a session; see server.CreateSessionRequest.
	SessionConfig = server.CreateSessionRequest
	// SessionInfo describes an open session.
	SessionInfo = server.SessionInfo
	// StepLine is one batch of words and/or idle cycles.
	StepLine = server.StepLine
	// StepSummary reports what one step request consumed.
	StepSummary = server.StepSummary
	// Sample is one sampling interval's record.
	Sample = server.Sample
	// Result is a session's outcome.
	Result = server.Result
	// BusResult is one bus's slice of a multi-bus Result.
	BusResult = server.BusResult
	// AdaptiveSpec configures the adaptive encoding controller on
	// SessionConfig.Adaptive.
	AdaptiveSpec = server.AdaptiveSpec
	// AdaptiveResult summarizes an adaptive session's switches.
	AdaptiveResult = server.AdaptiveResult
	// OwnerInfo names the cluster node that owns a session; it rides on
	// not_owner/moved redirects.
	OwnerInfo = server.OwnerInfo
	// ClusterStatus is a node's identity and static membership (GET
	// /v1/cluster).
	ClusterStatus = server.ClusterStatus
)

// APIError is a non-2xx response from the service. Unwrap maps the wire
// code onto the library's sentinel errors where one exists.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	// Owner names the cluster node that serves the session, set only on
	// not_owner/moved redirects from a clustered server.
	Owner *OwnerInfo
}

func (e *APIError) Error() string {
	return fmt.Sprintf("nanobusd: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
}

// Unwrap surfaces the library sentinel behind the wire code, if any.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case server.CodeUnknownNode:
		return itrs.ErrUnknownNode
	case server.CodeUnknownEncoding:
		return encoding.ErrUnknownScheme
	case server.CodePoisoned:
		return core.ErrPoisoned
	case server.CodeCheckpointCorrupt:
		return core.ErrCheckpointCorrupt
	case server.CodeCheckpointMismatch:
		return core.ErrCheckpointMismatch
	case server.CodeCanceled:
		return context.Canceled
	default:
		return nil
	}
}

// Client talks to one nanobusd instance.
type Client struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport reuse, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// closeQuietly closes a response body.
func closeQuietly(c io.Closer) {
	//nanolint:ignore droppederr nothing recoverable in a close failure after the response is consumed
	_ = c.Close()
}

// do sends a request and decodes a JSON response into out (unless nil),
// converting non-2xx responses into *APIError.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer closeQuietly(resp.Body)
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeAPIError(resp *http.Response) error {
	var er server.ErrorResponse
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err == nil && json.Unmarshal(body, &er) == nil && er.Code != "" {
		return &APIError{StatusCode: resp.StatusCode, Code: er.Code, Message: er.Error,
			Owner: er.Owner}
	}
	return &APIError{StatusCode: resp.StatusCode, Code: server.CodeInternal,
		Message: strings.TrimSpace(string(body))}
}

func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, method, c.base+path, body)
}

// CreateSession opens a session on the service.
func (c *Client) CreateSession(ctx context.Context, cfg SessionConfig) (*HTTPSession, error) {
	payload, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/sessions", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var info SessionInfo
	if err := c.do(req, &info); err != nil {
		return nil, err
	}
	return &HTTPSession{c: c, Info: info}, nil
}

// Healthz checks the service's health endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	return c.do(req, nil)
}

// Cluster fetches the node's identity and static membership (GET
// /v1/cluster) — the bootstrap for a Router. Single-node servers answer
// with an empty Self and no members.
func (c *Client) Cluster(ctx context.Context) (ClusterStatus, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/cluster", nil)
	if err != nil {
		return ClusterStatus{}, err
	}
	var st ClusterStatus
	if err := c.do(req, &st); err != nil {
		return ClusterStatus{}, err
	}
	return st, nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer closeQuietly(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", decodeAPIError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// HTTPSession is a handle on one service-side simulation stream over the
// HTTP transport. It implements Session; NBWPSession is its binary twin.
type HTTPSession struct {
	c    *Client
	Info SessionInfo
}

// ID returns the session id.
func (s *HTTPSession) ID() string { return s.Info.ID }

func (s *HTTPSession) path(suffix string) string {
	return "/v1/sessions/" + s.Info.ID + suffix
}

// Step streams one batch of data words as NDJSON.
func (s *HTTPSession) Step(ctx context.Context, words []uint32) (StepSummary, error) {
	return s.StepLines(ctx, []StepLine{{Words: words}})
}

// StepIdle advances the session n idle cycles.
func (s *HTTPSession) StepIdle(ctx context.Context, n uint64) (StepSummary, error) {
	return s.StepLines(ctx, []StepLine{{Idle: n}})
}

// encodeLines serialises step lines into one NDJSON body.
func encodeLines(lines []StepLine) ([]byte, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, line := range lines {
		if err := enc.Encode(line); err != nil {
			return nil, err
		}
	}
	return body.Bytes(), nil
}

// StepLines streams a sequence of word/idle batches as one NDJSON request.
func (s *HTTPSession) StepLines(ctx context.Context, lines []StepLine) (StepSummary, error) {
	body, err := encodeLines(lines)
	if err != nil {
		return StepSummary{}, err
	}
	req, err := s.c.newRequest(ctx, http.MethodPost, s.path("/step"), bytes.NewReader(body))
	if err != nil {
		return StepSummary{}, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	var sum StepSummary
	if err := s.c.do(req, &sum); err != nil {
		return StepSummary{}, err
	}
	return sum, nil
}

// binBufPool recycles StepBinary encode buffers; a session streaming many
// batches reuses one buffer instead of allocating 4×len(words) per call.
var binBufPool sync.Pool

// StepBinary streams words in the binary format (little-endian uint32),
// the lowest-overhead path for bulk traces.
func (s *HTTPSession) StepBinary(ctx context.Context, words []uint32) (StepSummary, error) {
	bp, _ := binBufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	// The request body is fully sent before do returns, so the buffer can
	// go back to the pool on exit.
	defer binBufPool.Put(bp)
	buf := nbwp.AppendWords((*bp)[:0], words)
	*bp = buf
	req, err := s.c.newRequest(ctx, http.MethodPost, s.path("/step"), bytes.NewReader(buf))
	if err != nil {
		return StepSummary{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var sum StepSummary
	if err := s.c.do(req, &sum); err != nil {
		return StepSummary{}, err
	}
	return sum, nil
}

// StepStream streams batches while receiving every closed sampling
// interval incrementally through onSample, and returns the final summary.
// body provides the NDJSON request body (use BodyFromLines for a fixed
// batch list, or an io.Pipe for an unbounded stream).
func (s *HTTPSession) StepStream(ctx context.Context, body io.Reader, onSample func(Sample)) (StepSummary, error) {
	req, err := s.c.newRequest(ctx, http.MethodPost, s.path("/step?stream=samples"), body)
	if err != nil {
		return StepSummary{}, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := s.c.hc.Do(req)
	if err != nil {
		return StepSummary{}, err
	}
	defer closeQuietly(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return StepSummary{}, decodeAPIError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line server.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return StepSummary{}, fmt.Errorf("decode stream line: %w", err)
		}
		switch {
		case line.Sample != nil:
			if onSample != nil {
				onSample(*line.Sample)
			}
		case line.Summary != nil:
			return *line.Summary, nil
		case line.Error != nil:
			return StepSummary{}, &APIError{StatusCode: line.Error.Status,
				Code: line.Error.Code, Message: line.Error.Error}
		}
	}
	if err := sc.Err(); err != nil {
		return StepSummary{}, err
	}
	return StepSummary{}, fmt.Errorf("nanobusd: stream ended without a summary")
}

// BodyFromLines serialises step lines into an NDJSON reader for
// StepStream.
func BodyFromLines(lines []StepLine) (io.Reader, error) {
	body, err := encodeLines(lines)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(body), nil
}

// Status fetches the session's live counters (retried under WithRetry:
// a status read is always idempotent).
func (s *HTTPSession) Status(ctx context.Context) (SessionInfo, error) {
	build := func() (*http.Request, error) {
		return s.c.newRequest(ctx, http.MethodGet, s.path(""), nil)
	}
	var info SessionInfo
	if err := s.c.doRetriable(ctx, build, &info); err != nil {
		return SessionInfo{}, err
	}
	return info, nil
}

// Result fetches the session outcome, closing the partial sampling
// interval first (like Bus.Finish) unless finish is false.
func (s *HTTPSession) Result(ctx context.Context, finish bool) (*Result, error) {
	path := s.path("/result")
	if !finish {
		path += "?finish=0"
	}
	req, err := s.c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := s.c.do(req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Close deletes the session, releasing its simulator back to the
// service's pool.
func (s *HTTPSession) Close(ctx context.Context) error {
	req, err := s.c.newRequest(ctx, http.MethodDelete, s.path(""), nil)
	if err != nil {
		return err
	}
	return s.c.do(req, nil)
}
