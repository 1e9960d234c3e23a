package e2e

import (
	"context"
	"fmt"
	"math"

	"nanobus"
	"nanobus/client"
	"nanobus/internal/server"
)

// Reference runs a schedule through the in-process library — the run
// every gate holds the daemon to: each batch through StepBatch, then idle
// idle cycles, then Finish. cfg is the session's own configuration; only
// its node, encoding and sampling interval have a library counterpart
// here, and any other setting is refused rather than silently dropped.
func Reference(ctx context.Context, cfg client.SessionConfig, batches [][]uint32, idle uint64) (*nanobus.Bus, error) {
	other := cfg
	other.Node, other.Encoding, other.IntervalCycles = "", "", 0
	if other != (client.SessionConfig{}) {
		return nil, fmt.Errorf("reference supports node, encoding and interval only: %+v", cfg)
	}
	node, err := nanobus.ResolveNode(cfg.Node)
	if err != nil {
		return nil, err
	}
	bus, err := nanobus.New(node, nanobus.WithEncoding(cfg.Encoding), nanobus.WithInterval(cfg.IntervalCycles))
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		if _, err := bus.StepBatch(ctx, b); err != nil {
			return nil, err
		}
	}
	if _, err := bus.StepIdleBatch(ctx, idle); err != nil {
		return nil, err
	}
	if err := bus.Finish(); err != nil {
		return nil, err
	}
	return bus, nil
}

// Bits is the float comparison that defines "bit-identical": equal
// IEEE-754 bit patterns. It is the only one: every session, scalar or
// multi-bus, restored or not, is held to it.
func Bits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// SameAsLibrary requires a scalar, non-adaptive session result to be
// bit-identical to a finished library bus: the result the service would
// have built from that bus, compared under SameResult.
func SameAsLibrary(res *client.Result, bus *nanobus.Bus) error {
	want := &client.Result{
		Cycles:   bus.Cycles(),
		Width:    bus.Width(),
		AvgTempK: bus.Network().AvgTemp(),
		TempsK:   bus.Temps(),
	}
	tot := bus.TotalEnergy()
	want.Total.TotalJ, want.Total.SelfJ = tot.Total(), tot.Self
	want.Total.CoupAdjJ, want.Total.CoupNonAdjJ = tot.CoupAdj, tot.CoupNonAdj
	want.MaxTempK, want.MaxWire = bus.Network().MaxTemp()
	for _, s := range bus.Samples() {
		want.Samples = append(want.Samples, client.Sample{
			EndCycle: s.EndCycle, EnergyJ: s.Energy,
			SelfJ: s.Self, CoupAdjJ: s.CoupAdj, CoupNonAdjJ: s.CoupNonAdj,
			AvgTempK: s.AvgTemp, MaxTempK: s.MaxTemp, MaxWire: s.MaxWire,
			WireTempsK: s.WireTemps, Encoder: s.Encoder, Switched: s.Switched,
		})
	}
	return SameResult(want, res)
}

// SameStream requires the SAMPLE frames streamed live for a session to be
// a bit-identical prefix of its result's samples (the final partial
// interval is closed by the result, not streamed).
func SameStream(res *client.Result, streamed []client.Sample) error {
	if len(streamed) > len(res.Samples) {
		return fmt.Errorf("streamed %d samples, result has %d", len(streamed), len(res.Samples))
	}
	c := &cmp{}
	c.samples("streamed", res.Samples[:len(streamed)], streamed)
	return c.err
}

// SameResult is the one definition of two session results agreeing. It
// compares every figure of the model by Bits and every integer and tag
// exactly: cycles, width, the energy split, the temperature aggregates
// and the full temperature vector, every field of every sample, the per-bus
// blocks of a multi-bus session and the adaptive controller's block. Only
// the session ID and the memo statistics, which describe the session
// rather than the model, are left out. The error names the first field
// that differs.
func SameResult(want, got *client.Result) error {
	c := &cmp{}
	same(c, "Cycles", want.Cycles, got.Cycles)
	same(c, "Width", want.Width, got.Width)
	c.split("Total", want.Total, got.Total)
	c.float("AvgTempK", want.AvgTempK, got.AvgTempK)
	c.float("MaxTempK", want.MaxTempK, got.MaxTempK)
	same(c, "MaxWire", want.MaxWire, got.MaxWire)
	c.floats("TempsK", want.TempsK, got.TempsK)
	c.samples("Samples", want.Samples, got.Samples)
	same(c, "Buses", want.Buses, got.Buses)
	same(c, "MaxBus", want.MaxBus, got.MaxBus)
	same(c, "len(PerBus)", len(want.PerBus), len(got.PerBus))
	for k := 0; c.err == nil && k < len(want.PerBus); k++ {
		w, g, name := want.PerBus[k], got.PerBus[k], fmt.Sprintf("PerBus[%d]", k)
		same(c, name+".Bus", w.Bus, g.Bus)
		c.split(name+".Total", w.Total, g.Total)
		c.float(name+".AvgTempK", w.AvgTempK, g.AvgTempK)
		c.float(name+".MaxTempK", w.MaxTempK, g.MaxTempK)
		same(c, name+".MaxWire", w.MaxWire, g.MaxWire)
		c.floats(name+".TempsK", w.TempsK, g.TempsK)
		c.samples(name+".Samples", w.Samples, g.Samples)
	}
	same(c, "Adaptive present", want.Adaptive != nil, got.Adaptive != nil)
	if c.err != nil || want.Adaptive == nil {
		return c.err
	}
	w, g := want.Adaptive, got.Adaptive
	same(c, "Adaptive.Base", w.Base, g.Base)
	same(c, "Adaptive.Cool", w.Cool, g.Cool)
	c.float("Adaptive.CeilingK", w.CeilingK, g.CeilingK)
	same(c, "Adaptive.Active", w.Active, g.Active)
	same(c, "len(Adaptive.Switches)", len(w.Switches), len(g.Switches))
	for i := 0; c.err == nil && i < len(w.Switches); i++ {
		ws, gs, name := w.Switches[i], g.Switches[i], fmt.Sprintf("Adaptive.Switches[%d]", i)
		same(c, name+".Cycle", ws.Cycle, gs.Cycle)
		same(c, name+".From", ws.From, gs.From)
		same(c, name+".To", ws.To, gs.To)
		c.float(name+".TempK", ws.TempK, gs.TempK)
	}
	same(c, "len(Adaptive.Occupancy)", len(w.Occupancy), len(g.Occupancy))
	for i := 0; c.err == nil && i < len(w.Occupancy); i++ {
		wc, gc, name := w.Occupancy[i], g.Occupancy[i], fmt.Sprintf("Adaptive.Occupancy[%d]", i)
		same(c, name+".Encoder", wc.Encoder, gc.Encoder)
		same(c, name+".Cycles", wc.Cycles, gc.Cycles)
	}
	return c.err
}

// cmp records the first difference a comparison finds.
type cmp struct {
	err error
}

func same[T comparable](c *cmp, name string, want, got T) {
	if c.err == nil && want != got {
		c.err = fmt.Errorf("%s: got %v, want %v", name, got, want)
	}
}

func (c *cmp) float(name string, want, got float64) {
	if c.err == nil && !Bits(want, got) {
		c.err = fmt.Errorf("%s: got %.17g, want %.17g", name, got, want)
	}
}

func (c *cmp) floats(name string, want, got []float64) {
	same(c, "len("+name+")", len(want), len(got))
	for i := 0; c.err == nil && i < len(want); i++ {
		c.float(fmt.Sprintf("%s[%d]", name, i), want[i], got[i])
	}
}

func (c *cmp) split(name string, want, got server.EnergySplit) {
	c.float(name+".TotalJ", want.TotalJ, got.TotalJ)
	c.float(name+".SelfJ", want.SelfJ, got.SelfJ)
	c.float(name+".CoupAdjJ", want.CoupAdjJ, got.CoupAdjJ)
	c.float(name+".CoupNonAdjJ", want.CoupNonAdjJ, got.CoupNonAdjJ)
}

func (c *cmp) samples(name string, want, got []client.Sample) {
	same(c, "len("+name+")", len(want), len(got))
	for i := 0; c.err == nil && i < len(want); i++ {
		w, g, name := want[i], got[i], fmt.Sprintf("%s[%d]", name, i)
		same(c, name+".EndCycle", w.EndCycle, g.EndCycle)
		c.float(name+".EnergyJ", w.EnergyJ, g.EnergyJ)
		c.float(name+".SelfJ", w.SelfJ, g.SelfJ)
		c.float(name+".CoupAdjJ", w.CoupAdjJ, g.CoupAdjJ)
		c.float(name+".CoupNonAdjJ", w.CoupNonAdjJ, g.CoupNonAdjJ)
		c.float(name+".AvgTempK", w.AvgTempK, g.AvgTempK)
		c.float(name+".MaxTempK", w.MaxTempK, g.MaxTempK)
		same(c, name+".MaxWire", w.MaxWire, g.MaxWire)
		c.floats(name+".WireTempsK", w.WireTempsK, g.WireTempsK)
		same(c, name+".Bus", w.Bus, g.Bus)
		same(c, name+".Encoder", w.Encoder, g.Encoder)
		same(c, name+".Switched", w.Switched, g.Switched)
	}
}
