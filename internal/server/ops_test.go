package server

import (
	"bufio"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"nanobus/internal/nbwp"
)

// TestNBWPStepCountsInShardQueue: an NBWP STEP waiting for a held
// session shows in nanobusd_shard_queue_depth like an HTTP request does.
func TestNBWPStepCountsInShardQueue(t *testing.T) {
	s := New(Config{AcquireTimeout: 10 * time.Second})
	sess, he := s.openSession(CreateSessionRequest{Node: "90nm"})
	if he != nil {
		t.Fatal(he)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		//nanolint:ignore droppederr the accept loop's exit error is net.ErrClosed on cleanup
		_ = s.ServeNBWP(lis)
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//nanolint:ignore droppederr test cleanup; the connection may already be closed
		_ = c.Close()
		//nanolint:ignore droppederr test cleanup; the accept loop's exit reports the close
		_ = lis.Close()
	})
	bw := bufio.NewWriter(c)
	fw := nbwp.FrameWriter{W: bw}
	fr := nbwp.FrameReader{R: bufio.NewReader(c), Max: nbwp.MaxPayload}
	send := func(h nbwp.Header, payload []byte) {
		t.Helper()
		if err := fw.WriteFrame(h, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want nbwp.Type) {
		t.Helper()
		var h nbwp.Header
		if _, err := fr.ReadFrame(&h); err != nil || h.Type != want {
			t.Fatalf("got %+v, %v; want type %#x", h, err, uint8(want))
		}
	}
	send(nbwp.Header{Type: nbwp.TypeOpen, Flags: nbwp.FlagAttach, Slot: 1}, []byte(sess.id))
	expect(nbwp.TypeAck)

	if !sess.tryAcquire() {
		t.Fatal("session unexpectedly busy")
	}
	send(nbwp.Header{Type: nbwp.TypeStep, Slot: 1}, []byte{1, 0, 0, 0})
	gauge := `nanobusd_shard_queue_depth{shard="` + strconv.Itoa(sess.info.Shard) + `"} 1`
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if strings.Contains(rec.Body.String(), gauge) {
			break
		}
		if time.Now().After(deadline) {
			sess.release()
			t.Fatalf("metrics never showed %q while the STEP waited", gauge)
		}
		time.Sleep(5 * time.Millisecond)
	}
	sess.release()
	expect(nbwp.TypeAck)
}
