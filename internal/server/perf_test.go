package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"testing"

	"nanobus/internal/core"
	"nanobus/internal/itrs"
	"nanobus/internal/nbwp"
)

// maxNBWPStepAllocs pins the per-frame allocation count of an NBWP STEP.
const maxNBWPStepAllocs = 6

// TestAppendStreamSampleParity pins the append-based sample encoder
// byte-identical to encoding/json across the float formats json selects:
// 'f' for ordinary magnitudes, 'e' below 1e-6 and at 1e21 and above, with
// zero-padded exponents stripped.
func TestAppendStreamSampleParity(t *testing.T) {
	samples := []Sample{
		{},
		{EndCycle: 100000, EnergyJ: 1.2345e-9, SelfJ: 9.87e-10, CoupAdjJ: 2e-10,
			CoupNonAdjJ: 4.75e-11, AvgTempK: 312.0625, MaxTempK: 319.5, MaxWire: 17},
		{EndCycle: math.MaxUint64, EnergyJ: -1.5e-7, SelfJ: 1e-6, CoupAdjJ: 9.999999e-7,
			CoupNonAdjJ: 1e21, AvgTempK: 9.99e20, MaxTempK: -2.5e-300, MaxWire: -1},
		{EnergyJ: 5e-324, SelfJ: math.MaxFloat64, CoupAdjJ: 0.1, CoupNonAdjJ: -0,
			AvgTempK: 300, MaxTempK: 1e-100},
		{EndCycle: 7, AvgTempK: 310.123456789, MaxTempK: 310.2,
			WireTempsK: []float64{300, 1e-9, 3.5e22, -0.25}},
		{WireTempsK: []float64{1e-6, 1e-7, 123456789.123}},
		{EndCycle: 200000, EnergyJ: 3.25e-9, AvgTempK: 311, MaxTempK: 318.75,
			Encoder: "BI"},
		{EndCycle: 300000, MaxTempK: 321.5, Encoder: "CoolSpread", Switched: true,
			Bus: 2, WireTempsK: []float64{305.5, 1e-8}},
		{Switched: true},
	}
	for i, ws := range samples {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(StreamLine{Sample: &ws}); err != nil {
			t.Fatal(err)
		}
		got := appendStreamSample(nil, ws)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("sample %d:\n got %q\nwant %q", i, got, want.Bytes())
		}
	}
}

// perfSession builds a server+session pair wired for direct body-consumer
// calls, bypassing HTTP.
func perfSession(t testing.TB, maxBatch int) (*Server, *session) {
	t.Helper()
	s := New(Config{MaxBatchWords: maxBatch})
	sim, err := core.NewMulti(core.MultiConfig{Config: core.Config{
		Node:           itrs.N130,
		CouplingDepth:  -1,
		IntervalCycles: core.DefaultIntervalCycles,
		DropSamples:    true,
	}, Buses: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s, &session{sim: sim, sem: make(chan struct{}, 1)}
}

// binaryBody serialises an address-like word stream to the wire format.
func binaryBody(words int) []byte {
	body := make([]byte, words*4)
	w, rng := uint32(0x4000_1000), uint32(5)
	for i := 0; i < words; i++ {
		rng = rng*1664525 + 1013904223
		switch rng % 8 {
		case 0:
			w = rng
		case 1: // hold
		default:
			w += 4
		}
		binary.LittleEndian.PutUint32(body[4*i:], w)
	}
	return body
}

// TestConsumeBinaryAllocs is the frame-decode alloc regression gate: with
// pooled frames and the zero-copy word view, a steady-state binary step
// request allocates a small constant independent of the batch size.
func TestConsumeBinaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items at random; alloc counts are not steady-state")
	}
	ctx := context.Background()
	measure := func(words int) float64 {
		s, sess := perfSession(t, 4096)
		body := binaryBody(words)
		rd := bytes.NewReader(body)
		var sum StepSummary
		// Warm the simulator memo and the frame pool.
		if err := s.consumeBinary(ctx, rd, sess, &sum); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			rd.Reset(body)
			if err := s.consumeBinary(ctx, rd, sess, &sum); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The shared bound is the gate: a 64x larger batch may not allocate
	// proportionally more (the odd residual alloc is a memo-entry slab for
	// a late-colliding transition, not a per-request buffer).
	small, large := measure(1024), measure(64*1024)
	if small > 2 || large > 2 {
		t.Errorf("consumeBinary allocates %v (1K words) / %v (64K words) per request, want <= 2", small, large)
	}
}

// TestNBWPStepAllocs is the NBWP hot-path alloc gate: one scalar BI STEP
// frame through the connection's dispatch — session lock, step, streamed
// SAMPLE frames and the ack — allocates a fixed count per frame.
func TestNBWPStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode instrumentation allocates; alloc counts are not steady-state")
	}
	s := New(Config{})
	sess, he := s.openSession(CreateSessionRequest{
		Node: "130nm", Encoding: "BI", IntervalCycles: 1024, DropSamples: true,
	})
	if he != nil {
		t.Fatal(he)
	}
	nc := &nbwpConn{s: s, ctx: context.Background(), bw: bufio.NewWriterSize(io.Discard, nbwpBufSize)}
	nc.fw = nbwp.FrameWriter{W: nc.bw}
	nc.slots[1], nc.stream[1] = sess, true
	payload := binaryBody(4096)
	h := nbwp.Header{Type: nbwp.TypeStep, Slot: 1}
	step := func() {
		if !nc.dispatch(h, payload) {
			t.Fatal("dispatch reported a broken connection")
		}
	}
	step() // warm the memo and the connection buffers
	allocs := testing.AllocsPerRun(50, step)
	t.Logf("%v allocs per STEP frame", allocs)
	if allocs > maxNBWPStepAllocs {
		t.Errorf("NBWP STEP allocates %v per frame, want <= %d", allocs, maxNBWPStepAllocs)
	}
}

// TestDecodeWords pins the zero-copy/fallback decode against the
// reference loop, including the unaligned fallback path.
func TestDecodeWords(t *testing.T) {
	raw := binaryBody(1027)
	want := make([]uint32, 1027)
	for i := range want {
		want[i] = binary.LittleEndian.Uint32(raw[4*i:])
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
	dst := make([]uint32, 1027)
	check("aligned", nbwp.Words(dst, raw))
	// An offset source defeats the aliasing fast path on every host.
	shifted := make([]byte, len(raw)+1)
	copy(shifted[1:], raw)
	check("unaligned", nbwp.Words(dst, shifted[1:]))
	if got := nbwp.Words(dst, nil); len(got) != 0 {
		t.Fatalf("empty source decoded %d words", len(got))
	}
}

// BenchmarkBinaryIngest measures the in-process binary step path —
// request body to simulator — in words per second.
func BenchmarkBinaryIngest(b *testing.B) {
	const words = 16384
	s, sess := perfSession(b, 65536)
	body := binaryBody(words)
	rd := bytes.NewReader(body)
	var sum StepSummary
	ctx := context.Background()
	if err := s.consumeBinary(ctx, rd, sess, &sum); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(words * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if err := s.consumeBinary(ctx, rd, sess, &sum); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSampleEncode measures the per-sample NDJSON append path.
func BenchmarkStreamSampleEncode(b *testing.B) {
	ws := Sample{EndCycle: 100000, EnergyJ: 1.2345e-9, SelfJ: 9.87e-10,
		CoupAdjJ: 2e-10, CoupNonAdjJ: 4.75e-11, AvgTempK: 312.0625,
		MaxTempK: 319.5, MaxWire: 17}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendStreamSample(buf[:0], ws)
	}
	if len(buf) == 0 {
		b.Fatal("empty encode")
	}
}
