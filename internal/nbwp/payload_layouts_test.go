package nbwp

// payloadLayout encodes and decodes one payload layout's test values
// (see payloadVectors for each layout's value type).
type payloadLayout struct {
	encode func(v any) ([]byte, error)
	decode func(p []byte) (any, error)
}

// payloadLayouts maps each payload layout to its codec.
var payloadLayouts = map[string]payloadLayout{
	"step_ack": {
		encode: func(v any) ([]byte, error) {
			var b [StepAckLen]byte
			PutStepAck(&b, v.(StepAck))
			return b[:], nil
		},
		decode: func(p []byte) (any, error) {
			var a StepAck
			err := ParseStepAck(p, &a)
			return a, err
		},
	},
	"idle": {
		encode: func(v any) ([]byte, error) {
			var b [8]byte
			PutIdle(&b, v.(uint64))
			return b[:], nil
		},
		decode: func(p []byte) (any, error) { return ParseIdle(p) },
	},
	"sample": sampleLayoutCodec(0,
		func(v any) Sample { return v.(Sample) },
		func(s Sample) any { return s }),
	"bus_sample": sampleLayoutCodec(FlagMultiSample,
		func(v any) Sample {
			bs := v.(busSample)
			bs.s.Bus = int(bs.bus)
			return bs.s
		},
		func(s Sample) any {
			bus := uint32(s.Bus)
			s.Bus = 0
			return busSample{bus: bus, s: s}
		}),
	"adaptive_sample": sampleLayoutCodec(FlagAdaptiveSample,
		func(v any) Sample {
			as := v.(adaptiveSample)
			as.s.Encoder, as.s.Switched = as.encoder, as.switched
			return as.s
		},
		func(s Sample) any {
			as := adaptiveSample{encoder: s.Encoder, switched: s.Switched}
			s.Encoder, s.Switched = "", false
			as.s = s
			return as
		}),
	"error": {
		encode: func(v any) ([]byte, error) { return AppendError(nil, v.(WireError)) },
		decode: func(p []byte) (any, error) { return ParseError(p) },
	},
	"restore": {
		encode: func(v any) ([]byte, error) {
			rp := v.(restorePayload)
			return AppendRestore(nil, Restore{ID: rp.id, Envelope: rp.envelope})
		},
		decode: func(p []byte) (any, error) {
			r, err := ParseRestore(p)
			return restorePayload{id: r.ID, envelope: r.Envelope}, err
		},
	},
}

// sampleLayoutCodec is the SAMPLE row flags selects, with its test value
// converted to and from a Sample.
func sampleLayoutCodec(flags uint8, to func(any) Sample, from func(Sample) any) payloadLayout {
	return payloadLayout{
		encode: func(v any) ([]byte, error) {
			s := to(v)
			return AppendSample(nil, flags, &s)
		},
		decode: func(p []byte) (any, error) {
			var s Sample
			err := ParseSample(p, flags, &s)
			return from(s), err
		},
	}
}
