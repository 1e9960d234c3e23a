package nbwp

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updatePayloads = flag.Bool("update-payloads", false, "rewrite testdata/*.bin from payloadVectors")

// busSample, adaptiveSample and restorePayload are the test vectors of
// the layouts that carry more than one value: a bus-tagged sample, an
// adaptive sample with its encoder tail, a RESTORE request.
type busSample struct {
	bus uint32
	s   Sample
}

type adaptiveSample struct {
	s        Sample
	encoder  string
	switched bool
}

type restorePayload struct {
	id       string
	envelope []byte
}

// pinnedSample is an ordinary closed interval without wire temps.
var pinnedSample = Sample{
	EndCycle: 100000, EnergyJ: 1.2345e-9, SelfJ: 9.87e-10, CoupAdjJ: 2e-10,
	CoupNonAdjJ: 4.75e-11, AvgTempK: 312.0625, MaxTempK: 319.5, MaxWire: 17,
}

// pinnedTemps returns n wire temperatures with varied bit patterns.
func pinnedTemps(n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = 300 + float64(i)*0.1 + math.Ldexp(1, -30-i)
	}
	return t
}

// payloadVectors are one or more values of every payload layout; each
// encodes to testdata/<name>.bin, byte for byte.
var payloadVectors = []struct {
	name   string
	layout string // a key of payloadLayouts
	v      any
}{
	{"step_ack", "step_ack", StepAck{Words: 16384, Idle: 77, Cycles: 1<<40 + 5, Samples: 12}},
	{"idle", "idle", uint64(123456789)},
	{"sample", "sample", pinnedSample},
	{"sample_32_temps", "sample", Sample{
		EndCycle: math.MaxUint64 - 1, EnergyJ: -1.5e-7, SelfJ: 5e-324, CoupAdjJ: math.MaxFloat64,
		CoupNonAdjJ: -0.25, AvgTempK: 301.5, MaxTempK: 303.125, MaxWire: 31, WireTempsK: pinnedTemps(32),
	}},
	{"bus_sample", "bus_sample", busSample{bus: 3, s: Sample{
		EndCycle: 8192, EnergyJ: 4.5e-10, SelfJ: 3e-10, CoupAdjJ: 1e-10, CoupNonAdjJ: 5e-11,
		AvgTempK: 318.25, MaxTempK: 318.5, MaxWire: 2, WireTempsK: pinnedTemps(4),
	}}},
	{"adaptive_sample", "adaptive_sample", adaptiveSample{s: pinnedSample, encoder: "BI"}},
	{"adaptive_sample_switched", "adaptive_sample", adaptiveSample{s: Sample{
		EndCycle: 300000, EnergyJ: 2.75e-9, AvgTempK: 318.15, MaxTempK: 318.4, MaxWire: 0,
		WireTempsK: pinnedTemps(2),
	}, encoder: "CoolSpread", switched: true}},
	{"error", "error", WireError{Status: 409, Code: "seq_gap", Msg: "seq 9 skips ahead; expected 4"}},
	{"error_owner", "error", WireError{
		Status: 421, Code: "not_owner",
		Owner: `{"node":"n2","url":"http://10.0.0.2:8080","nbwp":"10.0.0.2:9080"}`,
		Msg:   "session belongs to n2",
	}},
	{"restore_empty", "restore", restorePayload{}},
	{"restore_id", "restore", restorePayload{id: "deadbeefcafef00d"}},
	{"restore_id_envelope", "restore", restorePayload{id: "deadbeefcafef00d", envelope: []byte("NBSE\x01\x00 an envelope rides to the end")}},
}

// TestPayloadsPinned pins every payload layout's bytes: each vector
// encodes to its committed file, and the file decodes to a value that
// encodes to the same bytes again.
func TestPayloadsPinned(t *testing.T) {
	for _, pv := range payloadVectors {
		l, ok := payloadLayouts[pv.layout]
		if !ok {
			t.Fatalf("%s: no layout %q", pv.name, pv.layout)
		}
		got, err := l.encode(pv.v)
		if err != nil {
			t.Fatalf("%s: encode: %v", pv.name, err)
		}
		path := filepath.Join("testdata", pv.name+".bin")
		if *updatePayloads {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encodes to\n%x\nwant\n%x", pv.name, got, want)
			continue
		}
		back, err := l.decode(want)
		if err != nil {
			t.Errorf("%s: decode: %v", pv.name, err)
			continue
		}
		again, err := l.encode(back)
		if err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: decoded value re-encodes to %x (%v)", pv.name, again, err)
		}
	}
}
