package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"testing"

	"nanobus/internal/core"
)

// FuzzEnvelope feeds mutated NBSE envelopes to decodeEnvelope, which
// parses inline restore bodies and, through ValidateEnvelope, replica
// reads. With reseal set the trailing CRC is recomputed, so a mutation
// reaches the section parsing instead of the checksum. decodeEnvelope
// must not panic, may fail only with core.ErrCheckpointCorrupt, and an
// accepted envelope must re-encode to the same bytes. The seed is a real
// envelope, downloaded from a stepped session through the HTTP handler.
func FuzzEnvelope(f *testing.F) {
	s := New(Config{})
	sess, he := s.openSession(CreateSessionRequest{Node: "90nm", IntervalCycles: 500, TrackWireTemps: true})
	if he != nil {
		f.Fatal(he)
	}
	post := func(path, contentType string, body []byte) []byte {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			f.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	words := make([]byte, 4*1200)
	for i := range 1200 {
		binary.LittleEndian.PutUint32(words[4*i:], uint32(i)*2654435761)
	}
	post("/v1/sessions/"+sess.id+"/step", "application/octet-stream", words)
	env := post("/v1/sessions/"+sess.id+"/checkpoint?download=1", "", nil)
	f.Add(env, false)
	f.Add(env, true)

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 4 {
			data = append([]byte(nil), data...)
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
		}
		e, err := decodeEnvelope(data)
		if err != nil {
			if !errors.Is(err, core.ErrCheckpointCorrupt) {
				t.Fatalf("decodeEnvelope error is not ErrCheckpointCorrupt: %v", err)
			}
			return
		}
		if !bytes.Equal(e.encode(), data) {
			t.Fatal("an accepted envelope does not re-encode to its own bytes")
		}
	})
}
