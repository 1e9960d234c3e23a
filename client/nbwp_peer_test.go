package client

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanobus/internal/nbwp"
)

// fakePeer connects an NBWPConn to a scripted server over net.Pipe. The
// peer acks HELLO itself and hands every other frame to answer, which
// writes the peer's replies through fw.
func fakePeer(t *testing.T, answer func(fw *nbwp.FrameWriter, h nbwp.Header, payload []byte)) *NBWPConn {
	t.Helper()
	cli, srv := net.Pipe()
	go func() {
		fr := nbwp.FrameReader{R: srv, Max: nbwp.MaxPayload}
		fw := nbwp.FrameWriter{W: srv}
		var h nbwp.Header
		for {
			payload, err := fr.ReadFrame(&h)
			if err != nil {
				return
			}
			if h.Type == nbwp.TypeHello {
				if fw.WriteFrame(nbwp.Header{Type: nbwp.TypeAck}, nil) != nil {
					return
				}
				continue
			}
			answer(&fw, h, payload)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nc, err := handshakeNBWP(ctx, cli)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//nanolint:ignore droppederr test teardown; the pipe may already be closed
		_ = nc.Close()
		//nanolint:ignore droppederr test teardown; the pipe may already be closed
		_ = srv.Close()
	})
	return nc
}

// TestMalformedSampleFailsConnection checks that a SAMPLE frame the
// client cannot decode fails the connection, as a malformed ERROR frame
// does, instead of being dropped: the batch waiting on the same
// connection gets ErrBadPayload, and the callback never runs.
func TestMalformedSampleFailsConnection(t *testing.T) {
	nc := fakePeer(t, func(fw *nbwp.FrameWriter, h nbwp.Header, _ []byte) {
		switch h.Type {
		case nbwp.TypeOpen:
			//nanolint:ignore droppederr a dead pipe fails the client's wait instead
			_ = fw.WriteFrame(nbwp.Header{Type: nbwp.TypeAck, Slot: h.Slot}, []byte(`{"id":"s1"}`))
		case nbwp.TypeStep:
			// A sample cut short, and no ack.
			//nanolint:ignore droppederr a dead pipe fails the client's wait instead
			_ = fw.WriteFrame(nbwp.Header{Type: nbwp.TypeSample, Slot: h.Slot}, make([]byte, 10))
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var called atomic.Bool
	sess, err := nc.Open(ctx, SessionConfig{Node: "90nm"}, func(Sample) { called.Store(true) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.StepBinary(ctx, []uint32{1, 2, 3}); !errors.Is(err, nbwp.ErrBadPayload) {
		t.Fatalf("step after a malformed sample: err = %v, want ErrBadPayload", err)
	}
	if !nc.Broken() || called.Load() {
		t.Fatalf("broken = %t, callback called = %t; want a broken connection and no callback", nc.Broken(), called.Load())
	}
}

// TestRestoreSessionRejectsOversizedID checks that an id longer than the
// RESTORE payload's u16 prefix fails before any frame is sent: a cut
// prefix would make the server read the id's tail as an envelope.
func TestRestoreSessionRejectsOversizedID(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []nbwp.Type
	)
	nc := fakePeer(t, func(fw *nbwp.FrameWriter, h nbwp.Header, _ []byte) {
		mu.Lock()
		seen = append(seen, h.Type)
		mu.Unlock()
		if h.Type == nbwp.TypeGoodbye {
			//nanolint:ignore droppederr a dead pipe fails the client's wait instead
			_ = fw.WriteFrame(nbwp.Header{Type: nbwp.TypeAck}, nil)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := nc.RestoreSession(ctx, strings.Repeat("a", 65536), nil); !errors.Is(err, nbwp.ErrBadPayload) {
		t.Fatalf("RestoreSession with a 65,536-byte id: err = %v, want ErrBadPayload", err)
	}
	if err := nc.Goodbye(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != nbwp.TypeGoodbye {
		t.Fatalf("peer saw frames %v, want only the GOODBYE", seen)
	}
}
