package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/itrs"
	"nanobus/internal/trace"
)

// replayCycles is the length of every FuzzReplay run: a few to a few
// dozen sampling intervals at the fuzzed interval lengths.
const replayCycles = 1500

// replaySchemes are the static schemes FuzzReplay picks from: every
// registered scheme, so a new one cannot escape it. The adaptive pairs
// follow them in the same index space.
var replaySchemes = encoding.AllSchemes()

var replayAdaptive = [][2]string{{"BI", "CoolSpread"}, {"OEBI", "CoolCap"}, {"Gray", "CoolSpread"}}

// replaySeg is one run of a replay trace: n driven rows or n idle cycles
// starting at cycle start.
type replaySeg struct {
	start, n int
	idle     bool
}

// replayTraffic is a K-bus trace cut into driven and idle runs. cols[k][c]
// is bus k's word on cycle c (unused on idle cycles).
type replayTraffic struct {
	buses int
	segs  []replaySeg
	cols  [][]uint32
}

// newReplayTraffic draws address-like traffic (strides, holds, far jumps
// and, at a seed-chosen rate, uniformly random data words) with idle runs,
// cut into runs of random length so batch calls start and end anywhere.
// Half the idle runs may span up to three sampling intervals, so one
// StepIdleBatch closes several.
func newReplayTraffic(rng *rand.Rand, buses int, interval uint64) *replayTraffic {
	tr := &replayTraffic{buses: buses, cols: make([][]uint32, buses)}
	random := rng.Intn(9) // in ninths: 0 is pure address traffic
	for k := range tr.cols {
		col := make([]uint32, replayCycles)
		w := uint32(0x4000_0000) + uint32(k)<<14
		for c := range col {
			switch r := rng.Intn(9); {
			case r < random:
				w = rng.Uint32()
			case r == 8 && random < 8:
				w ^= 1 << uint(rng.Intn(32))
			case rng.Intn(6) == 0: // hold
			default:
				w += 4
			}
			col[c] = w
		}
		tr.cols[k] = col
	}
	for c := 0; c < replayCycles; {
		seg := replaySeg{start: c, idle: rng.Intn(4) == 0}
		switch {
		case seg.idle && rng.Intn(2) == 0:
			seg.n = 1 + rng.Intn(3*int(interval))
		case seg.idle:
			seg.n = 1 + rng.Intn(40)
		default:
			seg.n = 1 + rng.Intn(300)
		}
		seg.n = min(seg.n, replayCycles-c)
		tr.segs = append(tr.segs, seg)
		c += seg.n
	}
	return tr
}

// batchStepper is the batch surface Simulator and MultiSim share.
type batchStepper interface {
	StepBatch(ctx context.Context, words []uint32) (int, error)
	StepIdleBatch(ctx context.Context, n uint64) (uint64, error)
}

// drive feeds cycles [from, to) to sim through StepBatch and
// StepIdleBatch: bus's column alone when bus >= 0, else every bus's
// words interleaved cycle-major.
func (tr *replayTraffic) drive(t *testing.T, sim batchStepper, bus, from, to int) {
	t.Helper()
	ctx := context.Background()
	var row []uint32
	for _, s := range tr.segs {
		lo, hi := max(s.start, from), min(s.start+s.n, to)
		if lo >= hi {
			continue
		}
		if s.idle {
			if n, err := sim.StepIdleBatch(ctx, uint64(hi-lo)); err != nil || n != uint64(hi-lo) {
				t.Fatalf("StepIdleBatch(%d) = %d, %v", hi-lo, n, err)
			}
			continue
		}
		row = row[:0]
		for c := lo; c < hi; c++ {
			if bus >= 0 {
				row = append(row, tr.cols[bus][c])
				continue
			}
			for k := range tr.cols {
				row = append(row, tr.cols[k][c])
			}
		}
		if n, err := sim.StepBatch(ctx, row); err != nil || n != hi-lo {
			t.Fatalf("StepBatch of %d rows = %d, %v", hi-lo, n, err)
		}
	}
}

// idle reports whether cycle c is idle.
func (tr *replayTraffic) idle(c int) bool {
	for _, s := range tr.segs {
		if c < s.start+s.n {
			return s.idle
		}
	}
	return false
}

// tape compiles bus's column into a Tape.
func (tr *replayTraffic) tape(t *testing.T, bus int) *Tape {
	t.Helper()
	cycles := make([]trace.Cycle, replayCycles)
	for c := range cycles {
		cycles[c] = trace.Cycle{IValid: !tr.idle(c), IAddr: tr.cols[bus][c]}
	}
	tp, err := CompileTape(trace.NewSliceSource(cycles), "ia", replayCycles)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// replayCase is one fuzzed configuration.
type replayCase struct {
	cfg   Config // Encoder unset: each simulator gets its own instance
	enc   string // static scheme, or "" when Adaptive is set
	buses int
	cut   int
	tr    *replayTraffic
}

// newScalar builds a scalar simulator of the case's configuration.
func (rc *replayCase) newScalar(t *testing.T) *Simulator {
	t.Helper()
	cfg := rc.cfg
	if rc.enc != "" {
		enc, err := encoding.New(rc.enc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Encoder = enc
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// newMulti builds a K-bus simulator of the case's configuration.
func (rc *replayCase) newMulti(t *testing.T) *MultiSim {
	t.Helper()
	cfg := rc.cfg
	if rc.enc != "" {
		enc, err := encoding.New(rc.enc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Encoder = enc
	}
	m, err := NewMulti(MultiConfig{Config: cfg, Buses: rc.buses})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// finishSnapshot finishes sim and returns its snapshot.
func finishSnapshot(t *testing.T, sim interface {
	Finish() error
	Snapshot() ([]byte, error)
}) []byte {
	t.Helper()
	if err := sim.Finish(); err != nil {
		t.Fatal(err)
	}
	blob, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// newReplayCase decodes the fuzz inputs. An adaptive pair runs on one
// bus (NewMulti rejects the controller at K > 1); its ceiling is a
// probe sample's MaxTemp, so the controller switches inside the run.
func newReplayCase(t *testing.T, seed int64, scheme, shape, memo uint8, interval, cut uint16) *replayCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rc := &replayCase{
		cfg: Config{
			Node:           itrs.Nodes()[(shape>>2)%4],
			CouplingDepth:  -1,
			IntervalCycles: 32 + uint64(interval)%480,
			MemoSizeLog2:   [...]int{1, 0, -1}[memo%3],
			TrackWireTemps: shape&0x10 != 0,
		},
		buses: [...]int{1, 2, 4}[shape%4%3],
		cut:   int(cut) % (replayCycles + 1),
	}
	idx := int(scheme) % (len(replaySchemes) + len(replayAdaptive))
	if idx < len(replaySchemes) {
		rc.enc = replaySchemes[idx]
	} else {
		pair := replayAdaptive[idx-len(replaySchemes)]
		rc.buses = 1
		rc.tr = newReplayTraffic(rng, 1, rc.cfg.IntervalCycles)
		// The probe never switches; the run follows it up to the sample
		// whose MaxTemp is the ceiling, and switches there.
		rc.cfg.Adaptive = &AdaptiveConfig{Base: pair[0], Cool: pair[1], CeilingK: math.MaxFloat64}
		probe := rc.newScalar(t)
		rc.tr.drive(t, probe, 0, 0, replayCycles)
		if err := probe.Finish(); err != nil {
			t.Fatal(err)
		}
		ss := probe.Samples()
		rc.cfg.Adaptive = &AdaptiveConfig{
			Base: pair[0], Cool: pair[1],
			CeilingK:    ss[rng.Intn(len(ss))].MaxTemp,
			HysteresisK: 1e-9 * float64(rng.Intn(4)),
		}
		return rc
	}
	rc.tr = newReplayTraffic(rng, rc.buses, rc.cfg.IntervalCycles)
	return rc
}

// FuzzReplay is the differential check of the kernel's equivalences on
// fuzzed traffic, configuration and cut point. It picks a static scheme
// or an adaptive pair, K in {1, 2, 4}, a memo size (2^1, the default or
// off), a sampling interval and a cut cycle, then requires Float64bits
// agreement (byte-identical snapshots where both sides write one)
// between:
//   - per-word StepWord/StepIdle, StepBatch/StepIdleBatch and PlayTape
//     on a scalar Simulator;
//   - New and NewMulti(Buses: 1), snapshots at the cut and at the end;
//   - a snapshot at the cut restored into a fresh simulator and run on,
//     and the uninterrupted run;
//   - each bus of a K > 1 run and a scalar Simulator on its column
//     (energies only: the buses share one thermal grid).
func FuzzReplay(f *testing.F) {
	// One seed per scheme and adaptive pair; each seed's traffic holds an
	// idle run longer than two of its sampling intervals.
	for i, seed := range []int64{1, 1, 2, 9, 1, 1, 6, 12, 1, 3, 3} {
		f.Add(seed, uint8(i), uint8(i*7), uint8(i), uint16(100+i*53), uint16(i*211))
	}
	f.Fuzz(func(t *testing.T, seed int64, scheme, shape, memo uint8, interval, cut uint16) {
		rc := newReplayCase(t, seed, scheme, shape, memo, interval, cut)
		tr := rc.tr

		// Bus 0 on a scalar Simulator, three ways.
		perWord := rc.newScalar(t)
		for c := 0; c < replayCycles; c++ {
			if tr.idle(c) {
				perWord.StepIdle()
			} else {
				perWord.StepWord(tr.cols[0][c])
			}
		}
		batch := rc.newScalar(t)
		tr.drive(t, batch, 0, 0, rc.cut)
		scalarCut, err := batch.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		tr.drive(t, batch, 0, rc.cut, replayCycles)
		played := rc.newScalar(t)
		if err := played.PlayTape(context.Background(), tr.tape(t, 0)); err != nil {
			t.Fatal(err)
		}
		scalarEnd := finishSnapshot(t, batch)
		if !bytes.Equal(finishSnapshot(t, perWord), scalarEnd) {
			t.Fatal("per-word and batch runs end in different states")
		}
		if !bytes.Equal(finishSnapshot(t, played), scalarEnd) {
			t.Fatal("PlayTape and batch runs end in different states")
		}

		// The K-bus kernel: uninterrupted, and cut, restored and resumed.
		full := rc.newMulti(t)
		tr.drive(t, full, -1, 0, replayCycles)
		fullEnd := finishSnapshot(t, full)
		head := rc.newMulti(t)
		tr.drive(t, head, -1, 0, rc.cut)
		multiCut, err := head.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		resumed := rc.newMulti(t)
		if err := resumed.Restore(multiCut); err != nil {
			t.Fatal(err)
		}
		tr.drive(t, resumed, -1, rc.cut, replayCycles)
		if !bytes.Equal(finishSnapshot(t, resumed), fullEnd) {
			t.Fatalf("K %d: run resumed at cycle %d differs from the uninterrupted run", rc.buses, rc.cut)
		}

		if rc.buses == 1 {
			if !bytes.Equal(multiCut, scalarCut) {
				t.Fatal("New and NewMulti(Buses: 1) snapshots differ at the cut")
			}
			if !bytes.Equal(fullEnd, scalarEnd) {
				t.Fatal("New and NewMulti(Buses: 1) snapshots differ at the end")
			}
			cross := rc.newScalar(t)
			if err := cross.Restore(multiCut); err != nil {
				t.Fatal(err)
			}
			tr.drive(t, cross, 0, rc.cut, replayCycles)
			if !bytes.Equal(finishSnapshot(t, cross), scalarEnd) {
				t.Fatal("a NewMulti(Buses: 1) blob resumed on New differs from the uninterrupted run")
			}
			return
		}
		for k := 0; k < rc.buses; k++ {
			ref := batch
			if k > 0 {
				ref = rc.newScalar(t)
				tr.drive(t, ref, k, 0, replayCycles)
				if err := ref.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			sameBusEnergies(t, fmt.Sprintf("K %d bus %d", rc.buses, k), full, k, ref)
		}
	})
}

// sameBusEnergies requires bus k of m to hold ref's energies bit for bit:
// every sample's energy fields, the cumulative total and every line.
func sameBusEnergies(t *testing.T, label string, m *MultiSim, k int, ref *Simulator) {
	t.Helper()
	ms, rs := m.Samples(k), ref.Samples()
	if len(ms) != len(rs) {
		t.Fatalf("%s: %d samples, scalar %d", label, len(ms), len(rs))
	}
	for i := range ms {
		a, b := ms[i], rs[i]
		if a.EndCycle != b.EndCycle || !sameEnergy(
			energy.LineEnergy{Self: a.Self, CoupAdj: a.CoupAdj, CoupNonAdj: a.CoupNonAdj},
			energy.LineEnergy{Self: b.Self, CoupAdj: b.CoupAdj, CoupNonAdj: b.CoupNonAdj}) ||
			!sameEnergy(energy.LineEnergy{Self: a.Energy}, energy.LineEnergy{Self: b.Energy}) {
			t.Fatalf("%s sample %d: %+v, scalar %+v", label, i, a, b)
		}
	}
	if !sameEnergy(m.TotalEnergy(k), ref.TotalEnergy()) {
		t.Fatalf("%s: total %+v, scalar %+v", label, m.TotalEnergy(k), ref.TotalEnergy())
	}
	ml, rl := busLines(m, k), make([]energy.LineEnergy, ref.Width())
	ref.LineEnergies(rl)
	for i := range ml {
		if !sameEnergy(ml[i], rl[i]) {
			t.Fatalf("%s line %d: %+v, scalar %+v", label, i, ml[i], rl[i])
		}
	}
}
