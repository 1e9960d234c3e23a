package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"nanobus/client"
	"nanobus/internal/core"
	"nanobus/internal/server"
)

// fullResult is a result with every block populated: samples, per-bus
// blocks and the adaptive block.
func fullResult() *client.Result {
	samples := func() []client.Sample {
		return []client.Sample{{
			EndCycle: 100, EnergyJ: 1e-9, SelfJ: 4e-10, CoupAdjJ: 5e-10, CoupNonAdjJ: 1e-10,
			AvgTempK: 318.1, MaxTempK: 318.2, MaxWire: 3, WireTempsK: []float64{318.1, 318.2},
			Bus: 1, Encoder: "BI", Switched: true,
		}}
	}
	split := server.EnergySplit{TotalJ: 1e-9, SelfJ: 4e-10, CoupAdjJ: 5e-10, CoupNonAdjJ: 1e-10}
	return &client.Result{
		ID: "a", Cycles: 100, Width: 33, Total: split,
		AvgTempK: 318.1, MaxTempK: 318.2, MaxWire: 3, TempsK: []float64{318.1, 318.2},
		Samples: samples(),
		Memo:    server.MemoStats{Hits: 9, Misses: 1, HitRate: 0.9},
		Buses:   2, MaxBus: 1,
		PerBus: []client.BusResult{{
			Bus: 1, Total: split, AvgTempK: 318.1, MaxTempK: 318.2, MaxWire: 3,
			TempsK: []float64{318.1, 318.2}, Samples: samples(),
		}},
		Adaptive: &client.AdaptiveResult{
			Base: "BI", Cool: "CoolSpread", CeilingK: 318.15, Active: "CoolSpread",
			Switches:  []core.SwitchEvent{{Cycle: 100, From: "BI", To: "CoolSpread", TempK: 318.2}},
			Occupancy: []core.EncoderCycles{{Encoder: "BI", Cycles: 100}},
		},
	}
}

// forEachField perturbs every compared field under v in turn — one ulp for a
// float, one for an integer, a changed string, a flipped bool, one extra
// element for a slice, nil for a pointer — calls check with the name the
// comparison must report, and restores the field. ID and Memo are skipped:
// they are not part of the contract.
func forEachField(t *testing.T, v reflect.Value, path string, check func(name string)) {
	t.Helper()
	at := func(field string) string {
		if path == "" {
			return field
		}
		return path + "." + field
	}
	perturb := func(name string, set func()) {
		saved := reflect.New(v.Type()).Elem()
		saved.Set(v)
		set()
		check(name)
		v.Set(saved)
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		perturb(path+" present", func() { v.Set(reflect.Zero(v.Type())) })
		forEachField(t, v.Elem(), path, check)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; path != "" || (name != "ID" && name != "Memo") {
				forEachField(t, v.Field(i), at(name), check)
			}
		}
	case reflect.Slice:
		perturb("len("+path+")", func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
		for i := 0; i < v.Len(); i++ {
			forEachField(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	case reflect.Float64:
		perturb(path, func() { v.SetFloat(math.Nextafter(v.Float(), math.Inf(1))) })
	case reflect.Int:
		perturb(path, func() { v.SetInt(v.Int() + 1) })
	case reflect.Uint64:
		perturb(path, func() { v.SetUint(v.Uint() + 1) })
	case reflect.String:
		perturb(path, func() { v.SetString(v.String() + "x") })
	case reflect.Bool:
		perturb(path, func() { v.SetBool(!v.Bool()) })
	default:
		t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
	}
}

// requireNamed fails unless err reports exactly the field name.
func requireNamed(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil || !strings.HasPrefix(err.Error(), name+":") {
		t.Errorf("perturbing %s: got %v, want an error naming it", name, err)
	}
}

func TestSameResultNamesEveryField(t *testing.T) {
	want := fullResult()
	got := fullResult()
	got.ID, got.Memo.Hits = "b", 10 // not part of the contract
	if err := SameResult(want, got); err != nil {
		t.Fatalf("identical results: %v", err)
	}
	n := 0
	forEachField(t, reflect.ValueOf(got).Elem(), "", func(name string) {
		n++
		requireNamed(t, name, SameResult(want, got))
	})
	if n < 69 { // every leaf, slice length and pointer of fullResult
		t.Fatalf("only %d fields perturbed", n)
	}
}

func TestSameStream(t *testing.T) {
	res := fullResult()
	if err := SameStream(res, nil); err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	streamed := append([]client.Sample(nil), res.Samples...)
	if err := SameStream(res, streamed); err != nil {
		t.Fatalf("full stream: %v", err)
	}
	streamed[0].CoupNonAdjJ = math.Nextafter(streamed[0].CoupNonAdjJ, 0)
	requireNamed(t, "streamed[0].CoupNonAdjJ", SameStream(res, streamed))
	if err := SameStream(res, append(streamed, streamed...)); err == nil {
		t.Fatal("a stream longer than the result was accepted")
	}
}

// TestSameAsLibrary runs one schedule through an in-process service and
// through Reference, on one bus, on two and under the adaptive
// controller: each result must be bit-identical to the library, and
// perturbing any field of the first must be reported by name.
func TestSameAsLibrary(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	words := make([]uint32, 300)
	for i := range words {
		words[i] = uint32(i) * 2654435761
	}
	var res, ref *client.Result
	for i, cfg := range []client.SessionConfig{
		{Node: "90nm", Encoding: "BI", IntervalCycles: 64},
		{Node: "90nm", Encoding: "BI", IntervalCycles: 64, Buses: 2, TrackWireTemps: true},
		{Node: "90nm", IntervalCycles: 64, Adaptive: &client.AdaptiveSpec{Base: "BI", Cool: "CoolSpread", CeilingK: 318.1502, GuardK: 1e-4}},
	} {
		sess, err := client.New(ts.URL, client.WithHTTPClient(ts.Client())).OpenSession(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.StepBinary(ctx, words); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.StepIdle(ctx, 100); err != nil {
			t.Fatal(err)
		}
		got, err := sess.Result(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(ctx, cfg, []client.StepLine{{Words: words[:100]}, {Words: words[100:], Idle: 100}})
		if err != nil {
			t.Fatal(err)
		}
		if err := SameResult(want, got); err != nil {
			t.Fatalf("%+v: service vs library: %v", cfg, err)
		}
		if i == 0 {
			res, ref = got, want
		}
	}
	if len(res.Samples) < 2 || len(res.TempsK) != 33 {
		t.Fatalf("vacuous schedule: %d samples, %d temps", len(res.Samples), len(res.TempsK))
	}

	// Perturb a deep copy, so a stray alias cannot make the check vacuous.
	var got client.Result
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	forEachField(t, reflect.ValueOf(&got).Elem(), "", func(name string) {
		requireNamed(t, name, SameResult(ref, &got))
	})
	got.Adaptive = &client.AdaptiveResult{}
	requireNamed(t, "Adaptive present", SameResult(ref, &got))
}

func TestReferenceRefusesUnmappedSettings(t *testing.T) {
	ctx := context.Background()
	depth := 1
	for _, cfg := range []client.SessionConfig{
		{Node: "90nm", Encoding: "BI", IntervalCycles: 64, LengthM: 0.005},
		{Node: "90nm", Encoding: "BI", IntervalCycles: 64, CouplingDepth: &depth},
		{Node: "90nm", Encoding: "BI", IntervalCycles: 64, DropSamples: true},
		{Node: "90nm", Encoding: "BI", IntervalCycles: 64, Buses: 2, BusGapPitches: 3},
	} {
		if _, err := Reference(ctx, cfg, nil); err == nil || !strings.Contains(err.Error(), "reference supports") {
			t.Errorf("%+v: err %v", cfg, err)
		}
	}
	adaptive := &client.AdaptiveSpec{Base: "BI", Cool: "CoolSpread", CeilingK: 400, GuardK: 1}
	for _, cfg := range []client.SessionConfig{
		{Node: "7nm", Encoding: "BI", IntervalCycles: 64},
		{Node: "90nm", Encoding: "nope", IntervalCycles: 64},
		{Node: "90nm", Encoding: "BI", IntervalCycles: 64, Adaptive: adaptive},
		{Node: "90nm", IntervalCycles: 64, Buses: 2, Adaptive: adaptive},
	} {
		if _, err := Reference(ctx, cfg, nil); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Reference(cancelled, client.SessionConfig{Node: "90nm", Encoding: "BI", IntervalCycles: 64},
		[]client.StepLine{{Words: []uint32{1}}}); err == nil {
		t.Error("cancelled context accepted")
	}
}
