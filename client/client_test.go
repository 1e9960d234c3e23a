package client_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nanobus"
	"nanobus/client"
	"nanobus/internal/server"
)

func newService(t *testing.T) *client.Client {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

func words(seed uint32, n int) []uint32 {
	out := make([]uint32, n)
	x := seed
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = x
	}
	return out
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBinaryMatchesNDJSON sends the same words over both wire formats and
// expects identical summaries and results.
func TestBinaryMatchesNDJSON(t *testing.T) {
	c := newService(t)
	ctx := context.Background()
	data := words(11, 512)

	run := func(binary bool) (*client.Result, client.StepSummary) {
		sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "45nm", IntervalCycles: 128})
		if err != nil {
			t.Fatal(err)
		}
		var sum client.StepSummary
		if binary {
			sum, err = sess.StepBinary(ctx, data)
		} else {
			sum, err = sess.Step(ctx, data)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Result(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
		return res, sum
	}

	rn, sn := run(false)
	rb, sb := run(true)
	if sn != sb {
		t.Fatalf("summaries differ: ndjson %+v, binary %+v", sn, sb)
	}
	if !bitsEq(rn.Total.TotalJ, rb.Total.TotalJ) || !bitsEq(rn.MaxTempK, rb.MaxTempK) {
		t.Fatalf("results differ: ndjson %+v, binary %+v", rn.Total, rb.Total)
	}
}

// TestStepStreamDeliversSamples checks the incremental sample channel and
// terminal summary of the streaming step form.
func TestStepStreamDeliversSamples(t *testing.T) {
	c := newService(t)
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm", IntervalCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	body, err := client.BodyFromLines([]client.StepLine{
		{Words: words(7, 250)},
		{Idle: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	var samples []client.Sample
	sum, err := sess.StepStream(ctx, body, func(s client.Sample) { samples = append(samples, s) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Words != 250 || sum.Idle != 150 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(samples) != 4 { // 400 cycles / 100-cycle interval
		t.Fatalf("got %d streamed samples, want 4", len(samples))
	}
	for i, s := range samples {
		if want := uint64(100 * (i + 1)); s.EndCycle != want {
			t.Fatalf("sample %d ends at cycle %d, want %d", i, s.EndCycle, want)
		}
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSentinelMapping proves errors.Is works identically against the
// service as against the in-process library: wire codes unwrap to the
// nanobus facade sentinels.
func TestSentinelMapping(t *testing.T) {
	c := newService(t)
	ctx := context.Background()

	_, err := c.CreateSession(ctx, client.SessionConfig{Node: "13nm"})
	if !errors.Is(err, nanobus.ErrUnknownNode) {
		t.Fatalf("unknown node not mapped to nanobus.ErrUnknownNode: %v", err)
	}
	_, err = c.CreateSession(ctx, client.SessionConfig{Node: "90nm", Encoding: "ROT13"})
	if !errors.Is(err, nanobus.ErrUnknownEncoding) {
		t.Fatalf("unknown encoding not mapped to nanobus.ErrUnknownEncoding: %v", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("wire detail lost: %v", err)
	}
	if (&client.APIError{Code: server.CodePoisoned}).Unwrap() != nanobus.ErrSimulatorPoisoned {
		t.Fatal("poisoned code does not unwrap to nanobus.ErrSimulatorPoisoned")
	}
	if (&client.APIError{Code: server.CodeCanceled}).Unwrap() != context.Canceled {
		t.Fatal("canceled code does not unwrap to context.Canceled")
	}
}

// TestStatusAndLifecycle covers Status counters and the closed-session
// error path.
func TestStatusAndLifecycle(t *testing.T) {
	c := newService(t)
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm", IntervalCycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.StepLines(ctx, []client.StepLine{{Words: words(1, 40), Idle: 24}}); err != nil {
		t.Fatal(err)
	}
	info, err := sess.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Words != 40 || info.IdleCycles != 24 {
		t.Fatalf("status = %+v", info)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := sess.Status(ctx); !errors.As(err, &apiErr) || apiErr.Code != server.CodeNotFound {
		t.Fatalf("status after close: %v", err)
	}
	if err := sess.Close(ctx); !errors.As(err, &apiErr) || apiErr.Code != server.CodeNotFound {
		t.Fatalf("double close: %v", err)
	}
}

// TestHealthzAndMetrics sanity-checks the operational endpoints through
// the client.
func TestHealthzAndMetrics(t *testing.T) {
	c := newService(t)
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"nanobusd_up 1", "nanobusd_sessions_active", "nanobusd_words_total"} {
		if !strings.Contains(text, metric) {
			t.Fatalf("metrics missing %q:\n%s", metric, text)
		}
	}
}

// TestStreamBodyReader ensures StepStream accepts an arbitrary reader,
// not just BodyFromLines output.
func TestStreamBodyReader(t *testing.T) {
	c := newService(t)
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, client.SessionConfig{Node: "90nm", IntervalCycles: 32})
	if err != nil {
		t.Fatal(err)
	}
	var body io.Reader = strings.NewReader(`{"idle":64}` + "\n")
	sum, err := sess.StepStream(ctx, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Idle != 64 || sum.Samples != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
