package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateEnvelope = flag.Bool("update-envelope", false, "rewrite testdata/envelope.bin from pinnedEnvelope")

// pinnedEnvelope is an NBSE envelope around a stand-in core blob: the
// envelope codec never looks inside the blob.
var pinnedEnvelope = envelope{
	Seq:   7,
	Words: 1 << 33,
	Idle:  12345,
	Cfg:   []byte(`{"node":"90nm","encoding":"BI","interval_cycles":500}`),
	Core:  []byte("NBCP\x04\x00\x00\x00 a core checkpoint's bytes \xde\xad\xbe\xef"),
}

// TestEnvelopePinned pins the NBSE layout's bytes: the envelope encodes
// to the committed file, and the file decodes to the same fields.
func TestEnvelopePinned(t *testing.T) {
	got := pinnedEnvelope.encode()
	path := filepath.Join("testdata", "envelope.bin")
	if *updateEnvelope {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope encodes to\n%x\nwant\n%x", got, want)
	}
	e, err := decodeEnvelope(want)
	if err != nil {
		t.Fatal(err)
	}
	p := pinnedEnvelope
	if e.Seq != p.Seq || e.Words != p.Words || e.Idle != p.Idle ||
		!bytes.Equal(e.Cfg, p.Cfg) || !bytes.Equal(e.Core, p.Core) {
		t.Fatalf("decoded %+v, want %+v", *e, p)
	}
}
