package core

import (
	"context"
	"fmt"

	"nanobus/internal/encoding"
	"nanobus/internal/trace"
)

// Context-aware run loops. Cancellation granularity is one sampling
// interval: the loops poll ctx.Err() when an interval closes (and once on
// entry), never per cycle, so a cancelled context stops a run within at
// most IntervalCycles cycles of simulated work while the hot path stays
// free of per-cycle synchronization.

// batchChunk bounds how many words one StepBatch iteration encodes into
// the simulator's scratch buffer (32 KiB of uint64 scratch per simulator).
const batchChunk = 4096

// StepBatch drives every bus one word per cycle from an interleaved
// cycle-major slab: words[r*K + k] is bus k's word on relative cycle r,
// so len(words) must be a multiple of K (at K = 1 the slab is the bus's
// word stream). It checks ctx each time a sampling interval closes and
// returns the number of rows (cycles) consumed and the first error hit:
// ctx's error on cancellation, or the simulator's sticky error if an
// interval flush poisoned it (see Err). Like StepWord, StepBatch can
// poison the simulator.
//
// StepBatch is the batch fast path: words are encoded a chunk at a time
// into preallocated scratch (one encoder call per chunk and bus instead
// of one interface dispatch per word) and counted by the bus's stepping
// loop. Chunks never cross a sampling-interval boundary, so flush timing,
// sample contents, ctx polling points, and the consumed counts on every
// error path are identical to the per-word loop — and so are the
// energies, bit for bit. The steady state allocates nothing.
//
//nanolint:hotpath zero-alloc steady state pinned by BenchmarkStepBatch AllocsPerRun gates
func (k *kernel) StepBatch(ctx context.Context, words []uint32) (int, error) {
	if k.err != nil {
		return 0, k.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(words)%k.buses != 0 {
		return 0, fmt.Errorf("core: multi-sim batch of %d words is not a multiple of %d buses", len(words), k.buses)
	}
	rows := len(words) / k.buses
	done := 0
	for done < rows {
		n := int(min(uint64(rows-done), k.interval-k.cycleInInterval))
		k.stepRows(words[done*k.buses : (done+n)*k.buses])
		done += n
		if err := k.endSegment(ctx, uint64(n)); err != nil {
			return done, err
		}
	}
	return rows, nil
}

// StepIdleBatch advances n idle cycles on every bus (each holds its
// value), checking ctx each time a sampling interval closes. It returns
// the number of cycles consumed and the first error hit, with the same
// semantics as StepBatch. Idle cycles dissipate nothing, so a run of
// idles inside one interval is two counter additions: the cost is
// O(intervals closed), not O(n).
//
//nanolint:hotpath idle fast path shares StepBatch's zero-alloc contract
func (k *kernel) StepIdleBatch(ctx context.Context, n uint64) (uint64, error) {
	if k.err != nil {
		return 0, k.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var done uint64
	for done < n {
		c := min(n-done, k.interval-k.cycleInInterval)
		k.acc.IdleN(c)
		done += c
		if err := k.endSegment(ctx, c); err != nil {
			return done, err
		}
	}
	return n, nil
}

// stepRows encodes and counts cycle-major rows of K words, which must
// fit in the open sampling interval, a chunk of encBuf at a time: at
// K = 1 straight from the bus's own stream, at K > 1 one bus column at a
// time. The interval counters are left to endSegment.
//
//nanolint:hotpath shared chunk loop of StepBatch and PlayTape
func (k *kernel) stepRows(words []uint32) {
	K := k.buses
	rows := len(words) / K
	for done := 0; done < rows; {
		n := min(rows-done, k.chunkRows)
		enc := k.encBuf[:n]
		if K == 1 {
			encoding.EncodeWords(k.encs[0], enc, words[done:done+n])
			k.acc.StepBus(0, enc)
		} else {
			for b := 0; b < K; b++ {
				k.stepColumn(b, words[done*K+b:], enc)
			}
		}
		done += n
	}
	k.acc.AddCycles(uint64(rows))
}

// stepColumn transposes bus b's column out of a cycle-major chunk
// (src[r*K] is its word on row r, for each of the len(enc) rows), then
// encodes and counts it. The Unencoded scheme is a stateless widening,
// so its encode fuses into the transpose and skips one buffer pass. Its
// own function keeps the transpose loop's counter in a register.
//
//nanolint:hotpath per-bus chunk of the K > 1 batch kernel
func (k *kernel) stepColumn(b int, src []uint32, enc []uint64) {
	K := k.buses
	if k.rawEncode {
		for r := range enc {
			enc[r] = uint64(src[r*K])
		}
	} else {
		col := k.colBuf[:len(enc)]
		for r := range col {
			col[r] = src[r*K]
		}
		encoding.EncodeWords(k.encs[b], enc, col)
	}
	k.acc.StepBus(b, enc)
}

// advance accounts n cycles just driven inside the open sampling
// interval and closes the interval if they fill it, reporting whether it
// did.
func (k *kernel) advance(n uint64) bool {
	k.cycles += n
	k.cycleInInterval += n
	if k.cycleInInterval < k.interval {
		return false
	}
	k.flush(k.cycleInInterval)
	return true
}

// endSegment is advance for the batch paths: after a close it returns
// the simulator's sticky error, else ctx's. Closing an interval is the
// batch paths' only ctx polling point besides their entry.
func (k *kernel) endSegment(ctx context.Context, n uint64) error {
	if !k.advance(n) {
		return nil
	}
	if k.err != nil {
		return k.err
	}
	return ctx.Err()
}

// RunPairContext drives separate instruction- and data-address bus
// simulators from a trace source for up to maxCycles cycles, like RunPair,
// but polls ctx once per sampling interval (the smaller of the two
// simulators' intervals). On cancellation it returns ctx's error without
// finishing the simulators; the partial state remains inspectable through
// ia and da.
func RunPairContext(ctx context.Context, src trace.Source, ia, da *Simulator, maxCycles uint64) (PairResult, error) {
	if ia == nil || da == nil {
		return PairResult{}, fmt.Errorf("core: nil simulator")
	}
	check := ia.interval
	if da.interval < check {
		check = da.interval
	}
	var n uint64
	for n < maxCycles {
		if n%check == 0 {
			if err := ctx.Err(); err != nil {
				return PairResult{}, err
			}
		}
		c, ok := src.Next()
		if !ok {
			break
		}
		n++
		if c.IValid {
			ia.StepWord(c.IAddr)
		} else {
			ia.StepIdle()
		}
		if c.DValid {
			da.StepWord(c.DAddr)
		} else {
			da.StepIdle()
		}
	}
	if err := ia.Finish(); err != nil {
		return PairResult{}, err
	}
	if err := da.Finish(); err != nil {
		return PairResult{}, err
	}
	return PairResult{IA: ia, DA: da, Cycles: n}, nil
}

// RunSingleContext drives one simulator from the source's instruction
// stream (kind "ia") or data stream ("da") for up to maxCycles cycles,
// polling ctx once per sampling interval. On cancellation it returns the
// cycles consumed and ctx's error without finishing the simulator.
func RunSingleContext(ctx context.Context, src trace.Source, sim *Simulator, kind string, maxCycles uint64) (uint64, error) {
	if sim == nil {
		return 0, fmt.Errorf("core: nil simulator")
	}
	if kind != "ia" && kind != "da" {
		return 0, fmt.Errorf("core: unknown bus kind %q", kind)
	}
	var n uint64
	for n < maxCycles {
		if n%sim.interval == 0 {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		c, ok := src.Next()
		if !ok {
			break
		}
		n++
		valid, addr := c.IValid, c.IAddr
		if kind == "da" {
			valid, addr = c.DValid, c.DAddr
		}
		if valid {
			sim.StepWord(addr)
		} else {
			sim.StepIdle()
		}
	}
	if err := sim.Finish(); err != nil {
		return n, err
	}
	return n, nil
}
