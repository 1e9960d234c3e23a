package e2e

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"

	"nanobus/client"
	"nanobus/internal/server"
)

// TestStreamNBWP runs a schedule through StreamNBWP against an in-process
// NBWP listener: the result must match the library, the streamed samples
// must be a non-empty prefix of the result's, and a failing step
// sequence or an unreachable address must come back as an error.
func TestStreamNBWP(t *testing.T) {
	ctx := context.Background()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = server.New(server.Config{}).ServeNBWP(lis) //nanolint:ignore droppederr the accept loop ends with net.ErrClosed on cleanup
	}()
	defer func() {
		_ = lis.Close() //nanolint:ignore droppederr test cleanup
	}()
	addr := lis.Addr().String()
	cfg := client.SessionConfig{Node: "90nm", Encoding: "BI", IntervalCycles: 64}
	words := make([]uint32, 300)
	for i := range words {
		words[i] = uint32(i) * 2654435761
	}

	res, streamed, err := StreamNBWP(ctx, addr, cfg, func(sess client.Session) (*client.Result, error) {
		if _, err := sess.StepBinary(ctx, words); err != nil {
			return nil, err
		}
		res, err := sess.Result(ctx, true)
		if err != nil {
			return nil, err
		}
		return res, sess.Close(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(ctx, cfg, []client.StepLine{{Words: words}})
	if err != nil {
		t.Fatal(err)
	}
	if err := SameResult(ref, res); err != nil {
		t.Errorf("nbwp vs library: %v", err)
	}
	if len(streamed) == 0 {
		t.Error("no samples streamed")
	}
	if err := SameStream(res, streamed); err != nil {
		t.Error(err)
	}

	broke := errors.New("step sequence broke")
	if _, _, err := StreamNBWP(ctx, addr, cfg, func(client.Session) (*client.Result, error) {
		return nil, broke
	}); !errors.Is(err, broke) {
		t.Errorf("failing run: err = %v, want %v", err, broke)
	}
	if _, _, err := StreamNBWP(ctx, addr, client.SessionConfig{Node: "nosuchnode"}, nil); err == nil || !strings.HasPrefix(err.Error(), "open: ") {
		t.Errorf("bad config: err = %v, want an open error", err)
	}
	if err := lis.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := StreamNBWP(ctx, addr, cfg, nil); err == nil || !strings.HasPrefix(err.Error(), "dial: ") {
		t.Errorf("closed listener: err = %v, want a dial error", err)
	}
}
