package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nanobus/client"
	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/server"
)

func newTestService(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

// testWords returns a deterministic pseudo-address stream.
func testWords(seed uint32, n int) []uint32 {
	words := make([]uint32, n)
	x := seed
	for i := range words {
		x = x*1664525 + 1013904223
		words[i] = x
	}
	return words
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestBinaryStepMatchesNDJSON(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	cfg := client.SessionConfig{Node: "65nm", IntervalCycles: 512}
	words := testWords(42, 2048)

	a, err := c.CreateSession(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Step(ctx, words); err != nil {
		t.Fatal(err)
	}
	ra, err := a.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}

	b, err := c.CreateSession(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.StepBinary(ctx, words); err != nil {
		t.Fatal(err)
	}
	rb, err := b.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEq(ra.Total.TotalJ, rb.Total.TotalJ) || ra.Cycles != rb.Cycles {
		t.Fatalf("binary run diverged: %+v vs %+v", ra.Total, rb.Total)
	}
}

func TestStreamedSamples(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "130nm", IntervalCycles: 256})
	if err != nil {
		t.Fatal(err)
	}
	body, err := client.BodyFromLines([]client.StepLine{{Words: testWords(7, 1024)}})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []client.Sample
	sum, err := sess.StepStream(ctx, body, func(s client.Sample) { streamed = append(streamed, s) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 4 || len(streamed) != 4 {
		t.Fatalf("streamed %d samples, summary says %d, want 4", len(streamed), sum.Samples)
	}
	res, err := sess.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, ss := range streamed {
		if !bitsEq(ss.EnergyJ, res.Samples[i].EnergyJ) {
			t.Fatalf("streamed sample %d diverges from retained sample", i)
		}
	}
}

// TestCancellationMidStream: cancelling a streaming request releases the
// session within one sampling interval, leaving it usable.
func TestCancellationMidStream(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm", IntervalCycles: 128})
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	stepCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	firstSample := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		_, err := sess.StepStream(stepCtx, pr, func(client.Sample) {
			once.Do(func() { close(firstSample) })
		})
		done <- err
	}()

	enc := json.NewEncoder(pw)
	if err := enc.Encode(client.StepLine{Words: testWords(3, 256)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-firstSample:
	case <-time.After(10 * time.Second):
		t.Fatal("no sample within 10s")
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled stream returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled stream did not return")
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	// The session must be released promptly: the next request acquires it
	// within a bounded wait.
	resCtx, resCancel := context.WithTimeout(ctx, 10*time.Second)
	defer resCancel()
	if _, err := sess.Result(resCtx, true); err != nil {
		t.Fatalf("session unusable after cancellation: %v", err)
	}
}

// TestConcurrentStreamingSessions drives 64 concurrent streaming
// sessions (the acceptance bar) under -race; identical configs and
// traces must produce bit-identical results, including across pool
// recycling in a second wave.
func TestConcurrentStreamingSessions(t *testing.T) {
	const sessions = 64
	srv, c := newTestService(t, server.Config{Shards: 4})
	cfg := client.SessionConfig{Node: "90nm", Encoding: "BI", IntervalCycles: 256}
	words := testWords(99, 1024)

	wave := func(n int) []client.Result {
		results := make([]client.Result, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx := context.Background()
				sess, err := c.CreateSession(ctx, cfg)
				if err != nil {
					errs[i] = err
					return
				}
				// Three streaming step requests per session.
				for k := 0; k < 3 && errs[i] == nil; k++ {
					body, err := client.BodyFromLines([]client.StepLine{
						{Words: words}, {Idle: 64},
					})
					if err != nil {
						errs[i] = err
						return
					}
					if _, err := sess.StepStream(ctx, body, func(client.Sample) {}); err != nil {
						errs[i] = err
						return
					}
				}
				res, err := sess.Result(ctx, true)
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = *res
				errs[i] = sess.Close(ctx)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		return results
	}

	wave1 := wave(sessions)
	for i := 1; i < len(wave1); i++ {
		if !bitsEq(wave1[i].Total.TotalJ, wave1[0].Total.TotalJ) {
			t.Fatalf("session %d energy diverged from session 0", i)
		}
	}
	if got := srv.SessionsActive(); got != 0 {
		t.Fatalf("%d sessions leaked", got)
	}

	// Second wave rides recycled simulators and must match wave 1 bit
	// for bit.
	wave2 := wave(8)
	for i := range wave2 {
		if !bitsEq(wave2[i].Total.TotalJ, wave1[0].Total.TotalJ) {
			t.Fatalf("recycled session %d diverged", i)
		}
	}
}

func TestPoolRecycling(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	cfg := client.SessionConfig{Node: "45nm", IntervalCycles: 512}
	a, err := c.CreateSession(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Info.Recycled {
		t.Fatal("first session claims to be recycled")
	}
	if _, err := a.Step(ctx, testWords(1, 700)); err != nil {
		t.Fatal(err)
	}
	ra, err := a.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}

	b, err := c.CreateSession(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Info.Recycled {
		t.Fatal("second same-config session not recycled")
	}
	if _, err := b.Step(ctx, testWords(1, 700)); err != nil {
		t.Fatal(err)
	}
	rb, err := b.Result(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEq(ra.Total.TotalJ, rb.Total.TotalJ) || !bitsEq(ra.MaxTempK, rb.MaxTempK) {
		t.Fatal("recycled simulator is not bit-identical to a fresh one")
	}
}

// addressWords is sequential traffic with a jump every 64 words: the
// narrow, repeated transitions the memo counts.
func addressWords(n int) []uint32 {
	words := make([]uint32, n)
	for i := range words {
		words[i] = 0x4000_0000 + uint32(i)*4 + uint32(i/64)*0x1_0000
	}
	return words
}

// TestPoolRecyclingReportsSessionMemo opens, closes and reopens a pooled
// session on the same traffic: the recycled simulator's memo is warm and
// its counters cumulative, yet each Result reports only its own
// session's probes.
func TestPoolRecyclingReportsSessionMemo(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	cfg := client.SessionConfig{Node: "45nm", IntervalCycles: 512}
	var first server.MemoStats
	for round := 0; round < 2; round++ {
		sess, err := c.CreateSession(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Info.Recycled != (round == 1) {
			t.Fatalf("round %d: recycled = %v", round, sess.Info.Recycled)
		}
		if _, err := sess.Step(ctx, addressWords(3000)); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Result(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
		m := res.Memo
		if round == 0 {
			if m.Hits == 0 || m.Misses == 0 {
				t.Fatalf("fresh session memo stats %+v, want hits and misses", m)
			}
			first = m
			continue
		}
		if m.Hits+m.Misses != first.Hits+first.Misses || m.Misses > first.Misses {
			t.Fatalf("recycled session memo stats %+v, first session %+v: want the same probes, no more misses", m, first)
		}
		if want := float64(m.Hits) / float64(m.Hits+m.Misses); m.HitRate != want {
			t.Fatalf("recycled session hit rate %g, want %g", m.HitRate, want)
		}
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, c := newTestService(t, server.Config{})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm", IntervalCycles: 128})
	if err != nil {
		t.Fatal(err)
	}

	// Hold one step request in flight via a pipe body.
	pr, pw := io.Pipe()
	firstSample := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		_, err := sess.StepStream(ctx, pr, func(client.Sample) {
			once.Do(func() { close(firstSample) })
		})
		done <- err
	}()
	enc := json.NewEncoder(pw)
	if err := enc.Encode(client.StepLine{Words: testWords(5, 256)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-firstSample:
	case <-time.After(10 * time.Second):
		t.Fatal("no sample within 10s")
	}

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain()")
	}
	// New sessions are refused with the draining code.
	_, err = c.CreateSession(ctx, client.SessionConfig{Node: "90nm"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeDraining || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: %v", err)
	}
	// The in-flight request finishes normally.
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("in-flight request failed during drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request did not finish during drain")
	}
}

func TestErrorCodes(t *testing.T) {
	_, c := newTestService(t, server.Config{MaxBatchWords: 8, MaxSessions: 2})
	ctx := context.Background()

	var apiErr *client.APIError
	if _, err := c.CreateSession(ctx, client.SessionConfig{Node: "14nm"}); !errors.As(err, &apiErr) ||
		apiErr.Code != server.CodeUnknownNode {
		t.Fatalf("unknown node: %v", err)
	}
	if !errors.Is(apiErr, itrs.ErrUnknownNode) {
		t.Fatal("unknown_node does not unwrap to itrs.ErrUnknownNode")
	}
	if _, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm", Encoding: "XYZ"}); !errors.As(err, &apiErr) ||
		apiErr.Code != server.CodeUnknownEncoding {
		t.Fatalf("unknown encoding: %v", err)
	}
	if !errors.Is(apiErr, encoding.ErrUnknownScheme) {
		t.Fatal("unknown_encoding does not unwrap to encoding.ErrUnknownScheme")
	}

	sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(ctx, testWords(1, 9)); !errors.As(err, &apiErr) ||
		apiErr.Code != server.CodeBatchTooLarge || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %v", err)
	}

	// Session limit.
	if _, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm"}); !errors.As(err, &apiErr) ||
		apiErr.Code != server.CodeServerFull {
		t.Fatalf("server full: %v", err)
	}

	// Unknown session.
	ghost := *sess
	ghost.Info.ID = "00000000deadbeef"
	if _, err := ghost.Result(ctx, true); !errors.As(err, &apiErr) || apiErr.Code != server.CodeNotFound {
		t.Fatalf("unknown session: %v", err)
	}
}

func TestSessionBusy(t *testing.T) {
	// A short server-side acquire bound makes the 409 deterministic: the
	// server answers on its own rather than waiting on a client
	// disconnect it cannot yet observe (HTTP/1 only detects one after
	// the request body is read, and step acquires before reading it).
	_, c := newTestService(t, server.Config{AcquireTimeout: 200 * time.Millisecond})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm", IntervalCycles: 128})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	firstSample := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		_, err := sess.StepStream(ctx, pr, func(client.Sample) {
			once.Do(func() { close(firstSample) })
		})
		done <- err
	}()
	enc := json.NewEncoder(pw)
	if err := enc.Encode(client.StepLine{Words: testWords(5, 256)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-firstSample:
	case <-time.After(10 * time.Second):
		t.Fatal("no sample within 10s")
	}

	busyCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var apiErr *client.APIError
	if _, err := sess.Step(busyCtx, testWords(9, 4)); !errors.As(err, &apiErr) ||
		apiErr.Code != server.CodeSessionBusy || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("busy session: %v", err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Malformed create body.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	checkErrResp(t, resp, http.StatusBadRequest, server.CodeBadRequest)

	// Valid session for body-shape errors.
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"node":"90nm","interval_cycles":128}`))
	if err != nil {
		t.Fatal(err)
	}
	var info server.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	// Binary body with trailing partial word.
	resp, err = http.Post(ts.URL+"/v1/sessions/"+info.ID+"/step",
		"application/octet-stream", bytes.NewReader([]byte{1, 2, 3, 4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	checkErrResp(t, resp, http.StatusBadRequest, server.CodeBadRequest)

	// Malformed NDJSON line.
	resp, err = http.Post(ts.URL+"/v1/sessions/"+info.ID+"/step",
		"application/x-ndjson", strings.NewReader("{bad json}\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkErrResp(t, resp, http.StatusBadRequest, server.CodeBadRequest)
}

func checkErrResp(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d", resp.StatusCode, status)
	}
	var er server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != code {
		t.Fatalf("code %q, want %q", er.Code, code)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, c := newTestService(t, server.Config{Shards: 2})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm", IntervalCycles: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(ctx, testWords(11, 512)); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"nanobusd_up 1",
		"nanobusd_sessions_active 1",
		"nanobusd_sessions_created_total 1",
		"nanobusd_words_total 512",
		"nanobusd_samples_total 2",
		"nanobusd_memo_hits_total",
		"nanobusd_memo_hit_rate",
		"nanobusd_words_per_second",
		`nanobusd_shard_queue_depth{shard="0"}`,
		`nanobusd_shard_queue_depth{shard="1"}`,
		`nanobusd_shard_sessions{shard="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	status, err := sess.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Words != 512 || status.IdleCycles != 0 {
		t.Fatalf("status counters %+v", status)
	}
}
