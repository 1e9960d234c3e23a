// Command adaptive_gate is the CI gate for the adaptive cooling-code
// controller. It pins the two properties the feature promises:
//
//  1. Library leg: the self-calibrating cooling experiment (expt.Cooling,
//     45nm / mcf, small window) derives a ceiling the controller defends
//     on every sample while the static base encoder exceeds it, with at
//     most 15% bandwidth overhead — and a second run reproduces the
//     ceiling, the peak and every switch point bit for bit.
//
//  2. Transport leg: against an exec'd nanobusd, a self-calibrated
//     adaptive session is driven over HTTP (twice) and over NBWP; the
//     switch schedule, occupancy split and per-sample encoder tags must
//     be bit-identical across all three runs, every adaptive sample must
//     stay at or under the derived ceiling, and the static base run must
//     exceed it.
//
//     go build -o /tmp/nanobusd ./cmd/nanobusd
//     go run ./scripts/adaptive_gate -bin /tmp/nanobusd
package main

import (
	"context"
	"fmt"
	"time"

	"nanobus/client"
	"nanobus/internal/e2e"
	"nanobus/internal/expt"
	"nanobus/internal/itrs"
)

func main() { e2e.Main("adaptive_gate", 120*time.Second, run) }

func run(ctx context.Context, bin string) error {
	if err := libraryLeg(); err != nil {
		return fmt.Errorf("library: %w", err)
	}
	if err := transportLeg(ctx, bin); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	return nil
}

// libraryLeg runs the cooling cell twice in process and pins the headline
// claims plus bit-exact reproducibility of the derivation.
func libraryLeg() error {
	opts := expt.CoolingOptions{
		Cycles:         2_000_000,
		IntervalCycles: 100_000,
		Nodes:          []itrs.Node{itrs.N45},
		Benchmarks:     []string{"mcf"},
	}
	first, err := expt.Cooling(opts)
	if err != nil {
		return err
	}
	if len(first) != 1 {
		return fmt.Errorf("got %d cells, want 1", len(first))
	}
	c := first[0]
	if !c.Defended {
		return fmt.Errorf("ceiling %.6f K not defended: adaptive peak %.6f K", c.CeilingK, c.PeakAdaptiveK)
	}
	if !c.BaseExceeds {
		return fmt.Errorf("static %s peak %.6f K does not exceed the ceiling %.6f K", c.Base, c.PeakBaseK, c.CeilingK)
	}
	if len(c.Switches) == 0 {
		return fmt.Errorf("no encoder switch recorded")
	}
	if c.OverheadPct > 15 {
		return fmt.Errorf("bandwidth overhead %.1f%% > 15%%", c.OverheadPct)
	}
	for i, s := range c.Samples {
		if s.MaxTemp > c.CeilingK {
			return fmt.Errorf("sample %d exceeds the ceiling: %.6f K > %.6f K", i, s.MaxTemp, c.CeilingK)
		}
	}

	second, err := expt.Cooling(opts)
	if err != nil {
		return err
	}
	c2 := second[0]
	if !e2e.Bits(c2.CeilingK, c.CeilingK) || !e2e.Bits(c2.PeakAdaptiveK, c.PeakAdaptiveK) {
		return fmt.Errorf("re-run derived a different cell: ceiling %.17g vs %.17g, peak %.17g vs %.17g",
			c2.CeilingK, c.CeilingK, c2.PeakAdaptiveK, c.PeakAdaptiveK)
	}
	if len(c2.Switches) != len(c.Switches) {
		return fmt.Errorf("re-run switch count %d, want %d", len(c2.Switches), len(c.Switches))
	}
	for i := range c.Switches {
		a, b := c.Switches[i], c2.Switches[i]
		if a.Cycle != b.Cycle || a.From != b.From || a.To != b.To ||
			!e2e.Bits(a.TempK, b.TempK) {
			return fmt.Errorf("switch %d differs across runs: %+v vs %+v", i, a, b)
		}
	}
	fmt.Printf("adaptive_gate: library: %s/%s ceiling %.4f K defended (base peak %.4f K, %d switch(es), %.1f%% overhead), re-run bit-identical\n",
		c.Node, c.Benchmark, c.CeilingK, c.PeakBaseK, len(c.Switches), c.OverheadPct)
	return nil
}

const (
	gateNode     = "45nm"
	gateInterval = 1000
	gateWords    = 8 * gateInterval
)

// hammerTrace concentrates all switching on the low half of the bus:
// sixteen wires toggle every cycle while the rest idle, the hotspot
// pattern the base encoder cannot level but the spreading code can.
func hammerTrace() []uint32 {
	out := make([]uint32, gateWords)
	for i := range out {
		if i%2 == 0 {
			out[i] = 0x0000FFFF
		}
	}
	return out
}

// transportLeg self-calibrates an adaptive session against the daemon the
// same way the cooling experiment does, then requires the switch schedule
// to reproduce bit for bit over HTTP (twice) and NBWP (once, streamed).
func transportLeg(ctx context.Context, bin string) error {
	d, err := e2e.Start(bin, []string{"-addr", "127.0.0.1:0", "-nbwp-addr", "127.0.0.1:0"}, nil)
	if err != nil {
		return err
	}
	defer d.Kill()
	hc := client.New(d.URL())
	if err := hc.Healthz(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	trace := hammerTrace()

	// Calibration, over the wire: static base trajectory -> trigger and
	// peak; provisional adaptive at the trigger -> defended peak; final
	// ceiling halfway between the two (the switch schedule only depends on
	// trigger and release, so the final runs reproduce the provisional
	// schedule exactly).
	baseRes, err := runHTTP(ctx, hc, client.SessionConfig{
		Node: gateNode, Encoding: "BI", IntervalCycles: gateInterval,
	}, trace)
	if err != nil {
		return fmt.Errorf("static base run: %w", err)
	}
	if len(baseRes.Samples) < 4 {
		return fmt.Errorf("static base run produced %d samples, need at least 4", len(baseRes.Samples))
	}
	peakBase := peakMaxTempK(baseRes.Samples)
	trigger := baseRes.Samples[len(baseRes.Samples)/2].MaxTempK

	provisional, err := runHTTP(ctx, hc, adaptiveCfg(trigger, 0), trace)
	if err != nil {
		return fmt.Errorf("provisional adaptive run: %w", err)
	}
	peakAd := peakMaxTempK(provisional.Samples)
	if peakAd >= peakBase {
		return fmt.Errorf("controller did not lower the peak: adaptive %.6f K, base %.6f K", peakAd, peakBase)
	}
	ceiling := (peakAd + peakBase) / 2
	cfg := adaptiveCfg(ceiling, ceiling-trigger)

	ref, err := runHTTP(ctx, hc, cfg, trace)
	if err != nil {
		return fmt.Errorf("http adaptive run: %w", err)
	}
	httpAgain, err := runHTTP(ctx, hc, cfg, trace)
	if err != nil {
		return fmt.Errorf("http adaptive re-run: %w", err)
	}
	nbwpRes, streamed, err := e2e.StreamNBWP(ctx, d.NBWPAddr, cfg, func(sess client.Session) (*client.Result, error) {
		return runSession(ctx, sess, trace)
	})
	if err != nil {
		return fmt.Errorf("nbwp adaptive run: %w", err)
	}

	if ref.Adaptive == nil || len(ref.Adaptive.Switches) == 0 {
		return fmt.Errorf("adaptive run recorded no switch; the gate would be vacuous")
	}
	for i, s := range ref.Samples {
		if s.MaxTempK > ceiling {
			return fmt.Errorf("adaptive sample %d exceeds the ceiling: %.6f K > %.6f K", i, s.MaxTempK, ceiling)
		}
	}
	if peakBase <= ceiling {
		return fmt.Errorf("static base peak %.6f K does not exceed the ceiling %.6f K", peakBase, ceiling)
	}
	if err := e2e.SameResult(ref, httpAgain); err != nil {
		return fmt.Errorf("http re-run differs from http reference: %w", err)
	}
	if err := e2e.SameResult(ref, nbwpRes); err != nil {
		return fmt.Errorf("nbwp differs from http reference: %w", err)
	}
	// SAMPLE frames streamed live over NBWP carry the same tags as the
	// retained result samples (the final partial interval is not streamed).
	if len(streamed) == 0 {
		return fmt.Errorf("nbwp stream produced no samples")
	}
	if err := e2e.SameStream(nbwpRes, streamed); err != nil {
		return fmt.Errorf("nbwp: %w", err)
	}

	fmt.Printf("adaptive_gate: transport: ceiling %.4f K defended over http+nbwp (base peak %.4f K, %d switch(es) bit-identical across 3 runs, %d/%d samples streamed)\n",
		ceiling, peakBase, len(ref.Adaptive.Switches), len(streamed), len(nbwpRes.Samples))
	return d.Drain(ctx)
}

func adaptiveCfg(ceiling, guard float64) client.SessionConfig {
	return client.SessionConfig{
		Node:           gateNode,
		IntervalCycles: gateInterval,
		Adaptive: &client.AdaptiveSpec{
			Base: "BI", Cool: "CoolSpread",
			CeilingK: ceiling, GuardK: guard, HysteresisK: 0.001,
		},
	}
}

// runSession steps the trace through an open session and returns its
// finished result.
func runSession(ctx context.Context, sess client.Session, trace []uint32) (*client.Result, error) {
	if _, err := sess.StepBinary(ctx, trace); err != nil {
		return nil, err
	}
	res, err := sess.Result(ctx, true)
	if err != nil {
		return nil, err
	}
	return res, sess.Close(ctx)
}

func runHTTP(ctx context.Context, hc *client.Client, cfg client.SessionConfig, trace []uint32) (*client.Result, error) {
	sess, err := hc.OpenSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return runSession(ctx, sess, trace)
}

func peakMaxTempK(samples []client.Sample) float64 {
	peak := 0.0
	for _, s := range samples {
		if s.MaxTempK > peak {
			peak = s.MaxTempK
		}
	}
	return peak
}
