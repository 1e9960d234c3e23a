package nbwp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
)

func mustFrame(t *testing.T, h Header, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := FrameWriter{W: &buf}
	if err := fw.WriteFrame(h, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		h       Header
		payload []byte
	}{
		{"empty", Header{Type: TypeHello}, nil},
		{"step", Header{Type: TypeStep, Flags: FlagSeq, Slot: 7, Seq: 42}, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{"max slot", Header{Type: TypeGoodbye, Slot: 255, Seq: math.MaxUint32}, []byte("bye")},
		{"big", Header{Type: TypeRestore, Slot: 1}, bytes.Repeat([]byte{0xAB}, 100_000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := mustFrame(t, tc.h, tc.payload)
			var got Header
			fr := FrameReader{R: bytes.NewReader(raw), Max: MaxPayload}
			payload, err := fr.ReadFrame(&got)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.h
			want.Len = uint32(len(tc.payload))
			if got != want {
				t.Fatalf("header = %+v, want %+v", got, want)
			}
			if !bytes.Equal(payload, tc.payload) {
				t.Fatalf("payload mismatch: %d vs %d bytes", len(payload), len(tc.payload))
			}
		})
	}
}

func TestReadFrameTypedErrors(t *testing.T) {
	good := mustFrame(t, Header{Type: TypeStep, Slot: 1, Seq: 9}, []byte("abcdefgh"))

	corrupt := func(mutate func(b []byte)) []byte {
		b := bytes.Clone(good)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"cut header", good[:7], ErrTruncated},
		{"cut payload", good[:HeaderLen+3], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"bad version", corrupt(func(b []byte) {
			b[4] = 99
			b[15] = byte(headerCRC(b))
		}), ErrBadVersion},
		{"bad crc", corrupt(func(b []byte) { b[15] ^= 0xFF }), ErrBadHeaderCRC},
		{"oversized", corrupt(func(b []byte) {
			b[12], b[13], b[14] = 0xFF, 0xFF, 0x00 // declare 64 KiB
			b[15] = byte(headerCRC(b))
		}), ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Header
			fr := FrameReader{R: bytes.NewReader(tc.raw), Max: 1024}
			_, err := fr.ReadFrame(&h)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestPutHeaderRejectsOversizedPayload(t *testing.T) {
	var buf [HeaderLen]byte
	if err := PutHeader(&buf, Header{Type: TypeStep, Len: MaxPayload + 1}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	var w strings.Builder
	fw := FrameWriter{W: &w}
	if err := fw.WriteFrame(Header{Type: TypeStep}, make([]byte, MaxPayload+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame err = %v, want ErrFrameTooLarge", err)
	}
}

func TestStepAckRoundTrip(t *testing.T) {
	a := StepAck{Words: 16384, Idle: 77, Cycles: 1 << 40, Samples: 12}
	var buf [StepAckLen]byte
	PutStepAck(&buf, a)
	var got StepAck
	if err := ParseStepAck(buf[:], &got); err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip = %+v, want %+v", got, a)
	}
	if err := ParseStepAck(buf[:StepAckLen-1], &got); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short ack err = %v, want ErrBadPayload", err)
	}
}

func TestSampleRoundTrip(t *testing.T) {
	cases := []Sample{
		{},
		{EndCycle: 100000, EnergyJ: 1.2345e-9, SelfJ: 9.87e-10, CoupAdjJ: 2e-10,
			CoupNonAdjJ: 4.75e-11, AvgTempK: 312.0625, MaxTempK: 319.5, MaxWire: 17},
		{EndCycle: math.MaxUint64, EnergyJ: -1.5e-7, MaxTempK: math.Inf(1), MaxWire: -1,
			WireTempsK: []float64{300, 5e-324, math.MaxFloat64, -0.25}},
	}
	for i, s := range cases {
		raw, err := AppendSample(nil, 0, &s)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		var got Sample
		if err := ParseSample(raw, 0, &got); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got.EndCycle != s.EndCycle || got.MaxWire != s.MaxWire ||
			math.Float64bits(got.EnergyJ) != math.Float64bits(s.EnergyJ) ||
			math.Float64bits(got.MaxTempK) != math.Float64bits(s.MaxTempK) {
			t.Fatalf("sample %d round trip = %+v, want %+v", i, got, s)
		}
		if len(got.WireTempsK) != len(s.WireTempsK) {
			t.Fatalf("sample %d temps = %d, want %d", i, len(got.WireTempsK), len(s.WireTempsK))
		}
		for j := range s.WireTempsK {
			if math.Float64bits(got.WireTempsK[j]) != math.Float64bits(s.WireTempsK[j]) {
				t.Fatalf("sample %d temp %d differs", i, j)
			}
		}
	}

	// Structural damage is a typed error, not a panic or a giant alloc.
	raw, _ := AppendSample(nil, 0, &cases[1])
	var got Sample
	if err := ParseSample(raw[:len(raw)-1], 0, &got); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short sample err = %v", err)
	}
	lying := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(lying[60:64], 1<<30) // declare 2^30 temps
	if err := ParseSample(lying, 0, &got); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("lying temp count err = %v", err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	in := WireError{Status: 409, Code: "seq_gap", Msg: "seq 9 skips ahead; expected 4"}
	raw, err := AppendError(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseError(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("round trip = %+v, want %+v", got, in)
	}
	if _, err := ParseError(raw[:2]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short error err = %v", err)
	}
	lying := bytes.Clone(raw)
	binary.LittleEndian.PutUint16(lying[2:4], math.MaxUint16)
	if _, err := ParseError(lying); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("lying code length err = %v", err)
	}
}

func TestErrorRoundTripOwner(t *testing.T) {
	in := WireError{
		Status: 421,
		Code:   "not_owner",
		Owner:  `{"node":"n2","url":"http://10.0.0.2:8080","nbwp":"10.0.0.2:9080"}`,
		Msg:    "session belongs to n2",
	}
	raw, err := AppendError(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseError(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("round trip = %+v, want %+v", got, in)
	}
	// An owner length that points past the frame must be rejected, not
	// read out of bounds.
	ownerLenOff := 4 + len(in.Code)
	lying := bytes.Clone(raw)
	binary.LittleEndian.PutUint16(lying[ownerLenOff:ownerLenOff+2], math.MaxUint16)
	if _, err := ParseError(lying); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("lying owner length err = %v", err)
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	env := bytes.Repeat([]byte{0xCD}, 100)
	raw, err := AppendRestore(nil, Restore{ID: "deadbeefcafef00d", Envelope: env})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRestore(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "deadbeefcafef00d" || !bytes.Equal(got.Envelope, env) {
		t.Fatalf("round trip = %q, %d envelope bytes", got.ID, len(got.Envelope))
	}
	if _, err := ParseRestore(raw[:1]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short restore err = %v", err)
	}
	lying := bytes.Clone(raw)
	binary.LittleEndian.PutUint16(lying[0:2], math.MaxUint16)
	if _, err := ParseRestore(lying); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("lying id length err = %v", err)
	}
}

func TestIdleRoundTrip(t *testing.T) {
	var buf [8]byte
	PutIdle(&buf, 123456789)
	n, err := ParseIdle(buf[:])
	if err != nil || n != 123456789 {
		t.Fatalf("ParseIdle = %d, %v", n, err)
	}
	if _, err := ParseIdle(buf[:5]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short idle err = %v", err)
	}
}

func TestWords(t *testing.T) {
	want := make([]uint32, 1027)
	raw := make([]byte, 4*len(want))
	x := uint32(5)
	for i := range want {
		x = x*1664525 + 1013904223
		want[i] = x
		binary.LittleEndian.PutUint32(raw[4*i:], x)
	}
	check := func(name string, got []uint32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d words, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: word %d = %#x, want %#x", name, i, got[i], want[i])
			}
		}
	}
	dst := make([]uint32, len(want))
	check("aligned", Words(dst, raw))
	shifted := make([]byte, len(raw)+1)
	copy(shifted[1:], raw)
	check("unaligned", Words(dst, shifted[1:]))
	if got := Words(dst, nil); len(got) != 0 {
		t.Fatalf("empty source decoded %d words", len(got))
	}
	if got := AppendWords(nil, want); !bytes.Equal(got, raw) {
		t.Fatal("AppendWords does not invert Words")
	}
	// After a one-byte prefix the words start unaligned and take the
	// per-word path.
	if got := AppendWords([]byte{0xAB}, want); got[0] != 0xAB || !bytes.Equal(got[1:], raw) {
		t.Fatal("AppendWords after an unaligned prefix does not invert Words")
	}
	if got := AppendWords(make([]byte, 4, 5), want[:3]); !bytes.Equal(got[4:], raw[:12]) {
		t.Fatal("AppendWords after an aligned prefix does not invert Words")
	}
}

// TestFrameCodecAllocs pins the STEP hot path at zero allocations per
// frame: once the payload buffer has grown to the connection's
// high-water mark, reading and writing frames costs nothing on the heap.
func TestFrameCodecAllocs(t *testing.T) {
	payload := make([]byte, 16384*4)
	raw := mustFrame(t, Header{Type: TypeStep, Flags: FlagSeq, Slot: 3, Seq: 1}, payload)
	rd := bytes.NewReader(raw)
	var h Header
	fr := &FrameReader{R: rd, Max: MaxPayload}
	if got := testing.AllocsPerRun(100, func() {
		rd.Reset(raw)
		if _, err := fr.ReadFrame(&h); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ReadFrame allocates %v per frame, want 0", got)
	}

	fw := &FrameWriter{W: &countingDiscard{}}
	if got := testing.AllocsPerRun(100, func() {
		if err := fw.WriteFrame(h, payload); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("WriteFrame allocates %v per frame, want 0", got)
	}

	var ackBuf [StepAckLen]byte
	ack := StepAck{Words: 16384, Cycles: 1 << 20}
	var back StepAck
	if got := testing.AllocsPerRun(100, func() {
		PutStepAck(&ackBuf, ack)
		if err := ParseStepAck(ackBuf[:], &back); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("step ack codec allocates %v per ack, want 0", got)
	}

	// Each SAMPLE row: encode into a reused buffer, parse into a reused
	// Sample (its temps and encoder name kept from the last parse).
	for _, flags := range sampleLayoutFlags {
		s := Sample{Bus: 5, EndCycle: 1 << 20, EnergyJ: 1e-9, MaxTempK: 330, MaxWire: 7,
			WireTempsK: pinnedTemps(32), Encoder: "CoolSpread", Switched: true}
		buf, err := AppendSample(nil, flags, &s)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() {
			buf, err = AppendSample(buf[:0], flags, &s)
		}); got != 0 || err != nil {
			t.Errorf("flags %#x: AppendSample allocates %v per sample (%v), want 0", flags, got, err)
		}
		var back Sample
		if err := ParseSample(buf, flags, &back); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() {
			err = ParseSample(buf, flags, &back)
		}); got != 0 || err != nil {
			t.Errorf("flags %#x: ParseSample allocates %v per sample (%v), want 0", flags, got, err)
		}
	}
}

// countingDiscard is io.Discard without the interface-dispatch
// ReadFrom fast path, so WriteFrame's own writes are what is measured.
type countingDiscard struct{ n int }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

func headerCRC(b []byte) uint32 {
	return crc32.ChecksumIEEE(b[:15])
}

// TestEncodeRejectsOversizedStrings checks that a string longer than its
// length prefix can state fails the encode instead of being cut: a cut
// prefix shifts every later field, so a 65,539-byte RESTORE id would
// read back as a 3-byte id plus a 65,539-byte envelope.
func TestEncodeRejectsOversizedStrings(t *testing.T) {
	long := func(n int) string { return strings.Repeat("a", n) }
	if _, err := AppendRestore(nil, Restore{ID: long(65536)}); !errors.Is(err, ErrBadPayload) {
		t.Errorf("65,536-byte restore id: err = %v, want ErrBadPayload", err)
	}
	if _, err := AppendRestore(nil, Restore{ID: long(65539), Envelope: []byte("ENV")}); !errors.Is(err, ErrBadPayload) {
		t.Errorf("65,539-byte restore id: err = %v, want ErrBadPayload", err)
	}
	if _, err := AppendError(nil, WireError{Status: 421, Code: "not_owner", Owner: long(70000)}); !errors.Is(err, ErrBadPayload) {
		t.Errorf("70,000-byte owner: err = %v, want ErrBadPayload", err)
	}
	if _, err := AppendError(nil, WireError{Status: 400, Code: long(65536)}); !errors.Is(err, ErrBadPayload) {
		t.Errorf("65,536-byte code: err = %v, want ErrBadPayload", err)
	}
	if _, err := AppendSample(nil, FlagAdaptiveSample, &Sample{Encoder: long(256)}); !errors.Is(err, ErrBadPayload) {
		t.Errorf("256-byte encoder name: err = %v, want ErrBadPayload", err)
	}

	// The longest strings each prefix states still round-trip.
	raw, err := AppendRestore(nil, Restore{ID: long(65535), Envelope: []byte("ENV")})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := ParseRestore(raw); err != nil || len(r.ID) != 65535 || string(r.Envelope) != "ENV" {
		t.Errorf("65,535-byte id parsed as %d bytes + %q (%v)", len(r.ID), r.Envelope, err)
	}
	raw, err = AppendSample(nil, FlagAdaptiveSample, &Sample{Encoder: long(255)})
	if err != nil {
		t.Fatal(err)
	}
	var s Sample
	if err := ParseSample(raw, FlagAdaptiveSample, &s); err != nil || len(s.Encoder) != 255 {
		t.Errorf("255-byte encoder name parsed as %d bytes (%v)", len(s.Encoder), err)
	}
}

// sampleLayoutFlags are the three flag values that select a SAMPLE
// layout.
var sampleLayoutFlags = []uint8{0, FlagMultiSample, FlagAdaptiveSample}

// TestSampleLayoutFlags checks each SAMPLE row against its flags: a
// payload decodes only in the layout it was written in, and the
// {bus, adaptive} flags have no layout.
func TestSampleLayoutFlags(t *testing.T) {
	s := Sample{Bus: 2, EndCycle: 9, MaxWire: 1, WireTempsK: pinnedTemps(3), Encoder: "BI", Switched: true}
	for _, flags := range sampleLayoutFlags {
		raw, err := AppendSample(nil, flags, &s)
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range sampleLayoutFlags {
			var got Sample
			err := ParseSample(raw, other, &got)
			if (err == nil) != (other == flags) {
				t.Errorf("a flags %#x sample parsed with flags %#x: %v", flags, other, err)
			}
		}
	}
	both := FlagMultiSample | FlagAdaptiveSample
	if _, err := AppendSample(nil, both, &s); !errors.Is(err, ErrBadPayload) {
		t.Errorf("AppendSample with flags %#x: err = %v, want ErrBadPayload", both, err)
	}
}
