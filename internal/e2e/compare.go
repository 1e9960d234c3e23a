package e2e

import (
	"context"
	"fmt"
	"math"

	"nanobus/client"
	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/server"
)

// Reference replays a step script through the library kernel and returns
// the result the service would report for the same run: each line's words
// through StepBatch, then its idle cycles through StepIdleBatch, in script
// order, and then Finish. It is the run every gate holds the daemon to.
// cfg is the session's own configuration. Its node, encoding, interval,
// wire-temperature tracking, bus count and adaptive controller have a
// library counterpart here; any other setting is refused rather than
// silently dropped. Result.Memo carries the kernel's memo counters, which
// a fresh session reports too.
func Reference(ctx context.Context, cfg client.SessionConfig, script []client.StepLine) (*client.Result, error) {
	other := cfg
	other.Node, other.Encoding, other.IntervalCycles, other.TrackWireTemps = "", "", 0, false
	other.Buses, other.Adaptive = 0, nil
	if other != (client.SessionConfig{}) {
		return nil, fmt.Errorf("reference supports node, encoding, interval, wire temps, buses and adaptive only: %+v", cfg)
	}
	node, err := itrs.Resolve(cfg.Node)
	if err != nil {
		return nil, err
	}
	mc := core.MultiConfig{
		Config: core.Config{
			Node: node, CouplingDepth: -1,
			IntervalCycles: cfg.IntervalCycles, TrackWireTemps: cfg.TrackWireTemps,
		},
		Buses: max(cfg.Buses, 1),
	}
	if a := cfg.Adaptive; a != nil {
		if cfg.Encoding != "" {
			return nil, fmt.Errorf("reference: adaptive and encoding are mutually exclusive")
		}
		mc.Adaptive = &core.AdaptiveConfig{
			Base: a.Base, Cool: a.Cool, CeilingK: a.CeilingK, GuardK: a.GuardK, HysteresisK: a.HysteresisK,
		}
	} else {
		name := cfg.Encoding
		if name == "" {
			name = "Unencoded"
		}
		if mc.Encoder, err = encoding.New(name); err != nil {
			return nil, err
		}
	}
	sim, err := core.NewMulti(mc)
	if err != nil {
		return nil, err
	}
	for _, line := range script {
		if _, err := sim.StepBatch(ctx, line.Words); err != nil {
			return nil, err
		}
		if _, err := sim.StepIdleBatch(ctx, line.Idle); err != nil {
			return nil, err
		}
	}
	if err := sim.Finish(); err != nil {
		return nil, err
	}
	return libraryResult(sim, cfg.Adaptive), nil
}

// libraryResult assembles the result of a finished kernel run: a one-bus
// run reports its figures at the top level, a K-bus run grid-wide
// aggregates over one block per bus.
func libraryResult(sim *core.MultiSim, spec *client.AdaptiveSpec) *client.Result {
	st := sim.MemoStats()
	res := &client.Result{
		Cycles: sim.Cycles(),
		Width:  sim.Width(),
		Memo:   server.MemoStats{Hits: st.Hits, Misses: st.Misses, HitRate: st.HitRate()},
	}
	grid := sim.Grid()
	per := make([]client.BusResult, sim.Buses())
	for k := range per {
		tot := sim.TotalEnergy(k)
		b := &per[k]
		b.Bus = k
		b.Total = server.EnergySplit{TotalJ: tot.Total(), SelfJ: tot.Self, CoupAdjJ: tot.CoupAdj, CoupNonAdjJ: tot.CoupNonAdj}
		b.AvgTempK = grid.BusAvgTemp(k)
		b.MaxTempK, b.MaxWire = grid.BusMaxTemp(k)
		b.TempsK = grid.BusTemps(k, nil)
		for _, s := range sim.Samples(k) {
			b.Samples = append(b.Samples, client.Sample{
				EndCycle: s.EndCycle, EnergyJ: s.Energy,
				SelfJ: s.Self, CoupAdjJ: s.CoupAdj, CoupNonAdjJ: s.CoupNonAdj,
				AvgTempK: s.AvgTemp, MaxTempK: s.MaxTemp, MaxWire: s.MaxWire,
				WireTempsK: s.WireTemps, Bus: k, Encoder: s.Encoder, Switched: s.Switched,
			})
		}
		res.Total.TotalJ += b.Total.TotalJ
		res.Total.SelfJ += b.Total.SelfJ
		res.Total.CoupAdjJ += b.Total.CoupAdjJ
		res.Total.CoupNonAdjJ += b.Total.CoupNonAdjJ
	}
	if len(per) == 1 {
		b := per[0]
		res.Total, res.AvgTempK, res.MaxTempK, res.MaxWire = b.Total, b.AvgTempK, b.MaxTempK, b.MaxWire
		res.TempsK, res.Samples = b.TempsK, b.Samples
		if spec != nil {
			res.Adaptive = &client.AdaptiveResult{
				Base: spec.Base, Cool: spec.Cool, CeilingK: spec.CeilingK,
				Active: sim.ActiveEncoder(), Switches: sim.SwitchEvents(), Occupancy: sim.EncoderOccupancy(),
			}
		}
		return res
	}
	res.TempsK = grid.Temps(nil)
	for _, t := range res.TempsK {
		res.AvgTempK += t
	}
	res.AvgTempK /= float64(len(res.TempsK))
	res.MaxTempK, res.MaxBus, res.MaxWire = grid.MaxTemp()
	res.Buses, res.PerBus = len(per), per
	return res
}

// Bits is the float comparison that defines "bit-identical": equal
// IEEE-754 bit patterns. It is the only one: every session, scalar or
// multi-bus, restored or not, is held to it.
func Bits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

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
