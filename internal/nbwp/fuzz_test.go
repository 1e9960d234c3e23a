package nbwp

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzReadFrame is the codec's robustness gate: arbitrary bytes —
// truncated, oversized, bad-CRC, bad-magic, lying length fields — must
// never panic the reader and must always surface one of the package's
// typed errors (or a plain io error for a stream cut between frames).
// Valid frames must round-trip: re-encoding the parsed frame reproduces
// the consumed bytes exactly.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: every frame type round-tripped, plus each corruption
	// class the typed errors enumerate.
	seed := func(h Header, payload []byte) []byte {
		var buf bytes.Buffer
		fw := FrameWriter{W: &buf}
		if err := fw.WriteFrame(h, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(Header{Type: TypeHello}, nil))
	f.Add(seed(Header{Type: TypeOpen, Slot: 1}, []byte(`{"node":"90nm"}`)))
	f.Add(seed(Header{Type: TypeStep, Flags: FlagSeq, Slot: 1, Seq: 7}, []byte{1, 0, 0, 0, 2, 0, 0, 0}))
	f.Add(seed(Header{Type: TypeStepIdle, Slot: 1}, []byte{64, 0, 0, 0, 0, 0, 0, 0}))
	f.Add(seed(Header{Type: TypeAck, Slot: 1, Seq: 7}, make([]byte, StepAckLen)))
	must := func(payload []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return payload
	}
	f.Add(seed(Header{Type: TypeSample, Slot: 1}, must(AppendSample(nil, 0, &Sample{EndCycle: 100, MaxWire: 3}))))
	f.Add(seed(Header{Type: TypeError, Slot: 1}, must(AppendError(nil, WireError{Status: 409, Code: "seq_gap", Msg: "gap"}))))
	f.Add(seed(Header{Type: TypeError, Slot: 2}, must(AppendError(nil, WireError{Status: 421, Code: "not_owner", Owner: `{"node":"n2"}`, Msg: "moved"}))))
	f.Add(seed(Header{Type: TypeGoodbye}, nil))
	f.Add(seed(Header{Type: TypeDrain}, nil))
	cut := seed(Header{Type: TypeStep, Slot: 2}, bytes.Repeat([]byte{7}, 64))
	f.Add(cut[:len(cut)-9])  // truncated payload
	f.Add(cut[:HeaderLen-3]) // truncated header
	bad := bytes.Clone(cut)
	bad[0] = 'X'
	f.Add(bad) // bad magic
	bad2 := bytes.Clone(cut)
	bad2[15] ^= 0x5A
	f.Add(bad2) // bad CRC
	big := bytes.Clone(cut)
	big[12], big[13], big[14] = 0xFF, 0xFF, 0xFF // declare 16 MiB
	f.Add(big)

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var h Header
		fr := FrameReader{R: rd, Max: 1 << 20}
		for {
			buf, err := fr.ReadFrame(&h)
			if err != nil {
				if errors.Is(err, io.EOF) ||
					errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) ||
					errors.Is(err, ErrBadHeaderCRC) || errors.Is(err, ErrFrameTooLarge) ||
					errors.Is(err, ErrTruncated) {
					return
				}
				t.Fatalf("untyped error %v (%T)", err, err)
			}
			// A frame that parsed must re-encode to the exact bytes consumed.
			var out bytes.Buffer
			ofw := FrameWriter{W: &out}
			if werr := ofw.WriteFrame(h, buf); werr != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", werr)
			}
			consumed := len(data) - rd.Len()
			start := consumed - out.Len()
			if start < 0 || !bytes.Equal(out.Bytes(), data[start:consumed]) {
				t.Fatalf("accepted frame does not round-trip (%d bytes at %d)", out.Len(), start)
			}
			// Typed payload parsers must be panic-free on whatever the
			// framing layer accepted.
			switch h.Type {
			case TypeAck:
				var ack StepAck
				_ = ParseStepAck(buf, &ack)
			case TypeSample:
				var s Sample
				_ = ParseSample(buf, h.Flags, &s)
			case TypeError:
				_, _ = ParseError(buf)
			case TypeStepIdle:
				_, _ = ParseIdle(buf)
			case TypeRestore:
				_, _ = ParseRestore(buf)
			}
		}
	})
}

// FuzzPayloads runs every payload layout's decoder, each SAMPLE row
// included, on arbitrary bytes, seeded from the pinned vectors. A decode
// must not panic and may fail only with ErrBadPayload; an accepted
// payload must re-encode to its own bytes. The SAMPLE flags without a
// row ({bus, adaptive}) must reject everything.
func FuzzPayloads(f *testing.F) {
	var names []string
	for name := range payloadLayouts {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, pv := range payloadVectors {
		data, err := os.ReadFile(filepath.Join("testdata", pv.name+".bin"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(slices.Index(names, pv.layout)), data)
	}
	f.Fuzz(func(t *testing.T, layout byte, data []byte) {
		var s Sample
		if err := ParseSample(data, FlagMultiSample|FlagAdaptiveSample, &s); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("a SAMPLE with both layout flags decoded: %v", err)
		}
		name := names[int(layout)%len(names)]
		l := payloadLayouts[name]
		v, err := l.decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s: decode error is not ErrBadPayload: %v", name, err)
			}
			return
		}
		again, err := l.encode(v)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: accepted payload re-encodes to %x (%v), want %x", name, again, err, data)
		}
	})
}
