package core

import (
	"context"
	"math"
	"testing"

	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/thermal"
)

// hotWords returns a stream that toggles every wire each cycle — the
// worst-case heating pattern, so tests cross temperature thresholds in a
// handful of short intervals.
func hotWords(n int) []uint32 {
	words := make([]uint32, n)
	for i := range words {
		if i%2 == 0 {
			words[i] = 0xAAAAAAAA
		} else {
			words[i] = 0x55555555
		}
	}
	return words
}

// probeTrajectory runs a static base-encoder sim over words and returns
// its samples; adaptive tests derive bit-exact trigger temperatures from
// it (the adaptive run follows the base run identically until the first
// switch).
func probeTrajectory(t *testing.T, words []uint32, interval uint64, th thermal.NodeOptions) []Sample {
	t.Helper()
	enc, err := encoding.New("BI")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Node: itrs.N45, Encoder: enc, IntervalCycles: interval, Thermal: th})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.StepBatch(context.Background(), words); err != nil {
		t.Fatal(err)
	}
	if err := sim.Finish(); err != nil {
		t.Fatal(err)
	}
	return sim.Samples()
}

func newAdaptiveSim(t *testing.T, interval uint64, cfg AdaptiveConfig) *Simulator {
	return newAdaptiveSimThermal(t, interval, cfg, thermal.NodeOptions{})
}

func newAdaptiveSimThermal(t *testing.T, interval uint64, cfg AdaptiveConfig, th thermal.NodeOptions) *Simulator {
	t.Helper()
	sim, err := New(Config{Node: itrs.N45, IntervalCycles: interval, Adaptive: &cfg, Thermal: th})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestAdaptiveConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing base", Config{Node: itrs.N45, Adaptive: &AdaptiveConfig{Cool: "CoolSpread", CeilingK: 350}}},
		{"missing cool", Config{Node: itrs.N45, Adaptive: &AdaptiveConfig{Base: "BI", CeilingK: 350}}},
		{"same scheme", Config{Node: itrs.N45, Adaptive: &AdaptiveConfig{Base: "BI", Cool: "BI", CeilingK: 350}}},
		{"zero ceiling", Config{Node: itrs.N45, Adaptive: &AdaptiveConfig{Base: "BI", Cool: "CoolSpread"}}},
		{"negative guard", Config{Node: itrs.N45, Adaptive: &AdaptiveConfig{Base: "BI", Cool: "CoolSpread", CeilingK: 350, GuardK: -1}}},
		{"unknown base", Config{Node: itrs.N45, Adaptive: &AdaptiveConfig{Base: "nope", Cool: "CoolSpread", CeilingK: 350}}},
		{"unknown cool", Config{Node: itrs.N45, Adaptive: &AdaptiveConfig{Base: "BI", Cool: "nope", CeilingK: 350}}},
		{"encoder and adaptive", Config{Node: itrs.N45, Encoder: encoding.NewBI(),
			Adaptive: &AdaptiveConfig{Base: "BI", Cool: "CoolSpread", CeilingK: 350}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		}
	}
}

func TestAdaptiveWidthIsCommonMax(t *testing.T) {
	sim := newAdaptiveSim(t, 1000, AdaptiveConfig{Base: "BI", Cool: "CoolSpread", CeilingK: 1000})
	if sim.Width() != 33 {
		t.Errorf("BI+CoolSpread width = %d, want 33", sim.Width())
	}
	sim = newAdaptiveSim(t, 1000, AdaptiveConfig{Base: "BI", Cool: "CoolCap", CeilingK: 1000})
	if sim.Width() != 36 {
		t.Errorf("BI+CoolCap width = %d, want 36", sim.Width())
	}
}

// TestAdaptiveSwitchesAtTrigger pins the control law: the switch happens
// exactly at the first interval whose closing MaxTemp reaches
// CeilingK-GuardK, the sample is tagged, and occupancy splits at the
// switch boundary.
func TestAdaptiveSwitchesAtTrigger(t *testing.T) {
	const interval = 1000
	words := hotWords(8 * interval)
	probe := probeTrajectory(t, words, interval, thermal.NodeOptions{})
	// Trigger on the 3rd interval's exact closing temperature: the
	// adaptive run replays the base run bit-identically until then.
	trigger := probe[2].MaxTemp

	sim := newAdaptiveSim(t, interval, AdaptiveConfig{
		Base: "BI", Cool: "CoolSpread",
		CeilingK: trigger + 0.5, GuardK: 0.5, HysteresisK: 0.1,
	})
	if _, err := sim.StepBatch(context.Background(), words); err != nil {
		t.Fatal(err)
	}
	if err := sim.Finish(); err != nil {
		t.Fatal(err)
	}

	events := sim.SwitchEvents()
	if len(events) != 1 {
		t.Fatalf("got %d switch events, want 1: %+v", len(events), events)
	}
	ev := events[0]
	if ev.Cycle != probe[2].EndCycle {
		t.Errorf("switch at cycle %d, want %d", ev.Cycle, probe[2].EndCycle)
	}
	if ev.From != "BI" || ev.To != "CoolSpread" {
		t.Errorf("switch %s->%s, want BI->CoolSpread", ev.From, ev.To)
	}
	if math.Float64bits(ev.TempK) != math.Float64bits(probe[2].MaxTemp) {
		t.Errorf("switch TempK %v, want the probe's exact MaxTemp %v", ev.TempK, probe[2].MaxTemp)
	}

	samples := sim.Samples()
	for i, s := range samples {
		wantEnc := "BI"
		if i > 2 {
			wantEnc = "CoolSpread"
		}
		if s.Encoder != wantEnc {
			t.Errorf("sample %d encoder %q, want %q", i, s.Encoder, wantEnc)
		}
		if s.Switched != (i == 2) {
			t.Errorf("sample %d switched=%v", i, s.Switched)
		}
	}
	// Samples up to and including the switch interval are bit-identical
	// to the static base run: the controller must not perturb the
	// simulation before it acts.
	for i := 0; i <= 2; i++ {
		if samples[i].Energy != probe[i].Energy || samples[i].MaxTemp != probe[i].MaxTemp {
			t.Errorf("pre-switch sample %d diverged from static base run", i)
		}
	}

	occ := sim.EncoderOccupancy()
	if occ[0].Encoder != "BI" || occ[0].Cycles != 3*interval {
		t.Errorf("base occupancy %+v, want 3 intervals", occ[0])
	}
	if occ[1].Encoder != "CoolSpread" || occ[1].Cycles != 5*interval {
		t.Errorf("cool occupancy %+v, want 5 intervals", occ[1])
	}
	if sim.ActiveEncoder() != "CoolSpread" {
		t.Errorf("active encoder %q, want CoolSpread", sim.ActiveEncoder())
	}
	if !sim.Adaptive() {
		t.Error("Adaptive() = false")
	}
}

// TestAdaptiveHysteresisBand proves both sides of the band: with a tiny
// hysteresis the controller releases back to base once idle cycles cool
// the bus below the release point; with a huge hysteresis it holds the
// cool encoder forever.
func TestAdaptiveHysteresisBand(t *testing.T) {
	const interval = 1000
	// With the Eq. 7 inter-layer heating on, the whole bus warms
	// monotonically regardless of activity and a release threshold below
	// the trigger is unreachable; disable it so only bus self-heating
	// drives the trajectory and idle cycles genuinely cool the wires.
	th := thermal.NodeOptions{DisableInterLayer: true}
	words := hotWords(6 * interval)
	probe := probeTrajectory(t, words, interval, th)
	trigger := probe[2].MaxTemp

	run := func(hyst float64) *Simulator {
		sim := newAdaptiveSimThermal(t, interval, AdaptiveConfig{
			Base: "BI", Cool: "CoolSpread",
			CeilingK: trigger, HysteresisK: hyst,
		}, th)
		ctx := context.Background()
		if _, err := sim.StepBatch(ctx, words); err != nil {
			t.Fatal(err)
		}
		// Idle until the bus has cooled well below the trigger (idle
		// interval flushes still run the controller).
		if _, err := sim.StepIdleBatch(ctx, 5000*interval); err != nil {
			t.Fatal(err)
		}
		if err := sim.Finish(); err != nil {
			t.Fatal(err)
		}
		return sim
	}

	tight := run(1e-9)
	events := tight.SwitchEvents()
	if len(events) < 2 {
		t.Fatalf("tight band: %d events, want switch and release: %+v", len(events), events)
	}
	if events[1].From != "CoolSpread" || events[1].To != "BI" {
		t.Errorf("release %s->%s, want CoolSpread->BI", events[1].From, events[1].To)
	}
	if events[1].TempK > trigger-1e-9 {
		t.Errorf("released at %v, above release point %v", events[1].TempK, trigger-1e-9)
	}

	wide := run(1e6)
	if n := len(wide.SwitchEvents()); n != 1 {
		t.Errorf("wide band: %d events, want 1 (never releases)", n)
	}
}

// TestAdaptiveNeverSwitchingMatchesStaticBase pins the handover-free
// path: with an unreachable ceiling the adaptive simulator is the static
// base encoder, sample for sample, bit for bit.
func TestAdaptiveNeverSwitchingMatchesStaticBase(t *testing.T) {
	const interval = 1000
	words := hotWords(5 * interval)
	probe := probeTrajectory(t, words, interval, thermal.NodeOptions{})

	sim := newAdaptiveSim(t, interval, AdaptiveConfig{
		Base: "BI", Cool: "CoolSpread", CeilingK: 1e6,
	})
	if _, err := sim.StepBatch(context.Background(), words); err != nil {
		t.Fatal(err)
	}
	if err := sim.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(sim.SwitchEvents()) != 0 {
		t.Fatalf("unexpected switches: %+v", sim.SwitchEvents())
	}
	samples := sim.Samples()
	if len(samples) != len(probe) {
		t.Fatalf("%d samples vs %d", len(samples), len(probe))
	}
	for i := range samples {
		if samples[i].Energy != probe[i].Energy ||
			samples[i].MaxTemp != probe[i].MaxTemp ||
			samples[i].AvgTemp != probe[i].AvgTemp {
			t.Errorf("sample %d diverged from static BI", i)
		}
	}
}

// TestAdaptiveDeterministicReplay runs the same trace twice (fresh sim
// and Reset reuse) and requires bit-identical switch events and samples.
func TestAdaptiveDeterministicReplay(t *testing.T) {
	const interval = 1000
	words := hotWords(10 * interval)
	probe := probeTrajectory(t, words, interval, thermal.NodeOptions{})
	cfg := AdaptiveConfig{
		Base: "BI", Cool: "CoolSpread",
		CeilingK: probe[3].MaxTemp + 0.1, GuardK: 0.1, HysteresisK: 0.05,
	}

	runOn := func(sim *Simulator) ([]SwitchEvent, []Sample) {
		if _, err := sim.StepBatch(context.Background(), words); err != nil {
			t.Fatal(err)
		}
		if err := sim.Finish(); err != nil {
			t.Fatal(err)
		}
		return sim.SwitchEvents(), sim.Samples()
	}

	sim := newAdaptiveSim(t, interval, cfg)
	ev1, s1 := runOn(sim)
	if len(ev1) == 0 {
		t.Fatal("no switches in the replay scenario")
	}
	ev1 = append([]SwitchEvent(nil), ev1...)
	s1 = append([]Sample(nil), s1...)

	sim.Reset()
	ev2, s2 := runOn(sim)

	fresh := newAdaptiveSim(t, interval, cfg)
	ev3, s3 := runOn(fresh)

	for run, got := range [][]SwitchEvent{ev2, ev3} {
		if len(got) != len(ev1) {
			t.Fatalf("run %d: %d events vs %d", run, len(got), len(ev1))
		}
		for i := range got {
			if got[i].Cycle != ev1[i].Cycle || got[i].From != ev1[i].From || got[i].To != ev1[i].To ||
				math.Float64bits(got[i].TempK) != math.Float64bits(ev1[i].TempK) {
				t.Errorf("run %d event %d: %+v vs %+v", run, i, got[i], ev1[i])
			}
		}
	}
	for run, got := range [][]Sample{s2, s3} {
		for i := range got {
			if math.Float64bits(got[i].Energy) != math.Float64bits(s1[i].Energy) ||
				math.Float64bits(got[i].MaxTemp) != math.Float64bits(s1[i].MaxTemp) ||
				got[i].Encoder != s1[i].Encoder || got[i].Switched != s1[i].Switched {
				t.Errorf("run %d sample %d diverged", run, i)
			}
		}
	}
}

// TestNonAdaptiveSampleFieldsEmpty guards the v1 JSON surface: static
// sims must leave the adaptive tags at their zero values so omitempty
// keeps the wire format unchanged.
func TestNonAdaptiveSampleFieldsEmpty(t *testing.T) {
	const interval = 1000
	for _, s := range probeTrajectory(t, hotWords(3*interval), interval, thermal.NodeOptions{}) {
		if s.Encoder != "" || s.Switched {
			t.Fatalf("static sample carries adaptive tags: %+v", s)
		}
	}
}
