package nbwp

import "testing"

// BenchmarkPayloadCodec times one encode plus one parse of a payload on
// the STEP path, into buffers reused across iterations: "stepack" is the
// ack of every STEP frame, "sample32" a streamed SAMPLE with 32 wire
// temperatures. Each warms its buffers up outside the timer, so short
// runs (-benchtime 100x) read the steady state.
func BenchmarkPayloadCodec(b *testing.B) {
	b.Run("stepack", func(b *testing.B) {
		var buf [StepAckLen]byte
		in, out := StepAck{Words: 4096, Idle: 7, Cycles: 1 << 20, Samples: 3}, StepAck{}
		roundTrip := func() {
			in.Cycles++
			PutStepAck(&buf, in)
			if err := ParseStepAck(buf[:], &out); err != nil {
				b.Fatal(err)
			}
		}
		roundTrip()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip()
		}
		if out != in {
			b.Fatalf("parsed %+v, want %+v", out, in)
		}
	})
	b.Run("sample32", func(b *testing.B) {
		in := Sample{EndCycle: 1 << 20, EnergyJ: 1.5e-9, SelfJ: 4e-10, CoupAdjJ: 9e-10,
			CoupNonAdjJ: 2e-10, AvgTempK: 318.25, MaxTempK: 319.5, MaxWire: 17,
			WireTempsK: make([]float64, 32)}
		for i := range in.WireTempsK {
			in.WireTempsK[i] = 318 + float64(i)/64
		}
		var out Sample
		var dst []byte
		roundTrip := func() {
			in.EndCycle++
			var err error
			if dst, err = AppendSample(dst[:0], 0, &in); err != nil {
				b.Fatal(err)
			}
			if err := ParseSample(dst, 0, &out); err != nil {
				b.Fatal(err)
			}
		}
		roundTrip()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip()
		}
		if out.EndCycle != in.EndCycle || len(out.WireTempsK) != 32 {
			b.Fatalf("parsed end cycle %d with %d temps", out.EndCycle, len(out.WireTempsK))
		}
	})
}
