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

// StepBatch drives one data word per cycle for every word in words,
// checking ctx each time a sampling interval closes. It returns the number
// of words consumed and the first error hit: ctx's error on cancellation,
// or the simulator's sticky error if an interval flush poisoned it (see
// Err). Like StepWord, StepBatch can poison the simulator.
//
// StepBatch is the batch fast path: words are encoded a chunk at a time
// into preallocated scratch (one encoder call per chunk instead of one
// interface dispatch per word) and accumulated through
// energy.Accumulator.StepBatch. Chunks never cross a sampling-interval
// boundary, so flush timing, sample contents, ctx polling points, and the
// consumed-word counts on every error path are identical to the per-word
// loop — and so are the energies, bit for bit. The steady state allocates
// nothing.
//
//nanolint:hotpath zero-alloc steady state pinned by BenchmarkStepBatch AllocsPerRun gates
func (s *Simulator) StepBatch(ctx context.Context, words []uint32) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	done := 0
	for done < len(words) {
		n := min(uint64(len(words)-done), s.interval-s.cycleInInterval)
		s.stepWords(words[done : done+int(n)])
		done += int(n)
		if err := s.endSegment(ctx, n); err != nil {
			return done, err
		}
	}
	return len(words), nil
}

// StepIdleBatch advances n idle cycles (the bus holds its value), checking
// ctx each time a sampling interval closes. It returns the number of
// cycles consumed and the first error hit, with the same semantics as
// StepBatch. Idle cycles dissipate nothing, so a run of idles inside one
// interval is two counter additions: the cost is O(intervals closed), not
// O(n).
//
//nanolint:hotpath idle fast path shares StepBatch's zero-alloc contract
func (s *Simulator) StepIdleBatch(ctx context.Context, n uint64) (uint64, error) {
	if s.err != nil {
		return 0, s.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var done uint64
	for done < n {
		k := min(n-done, s.interval-s.cycleInInterval)
		s.acc.IdleN(k)
		done += k
		if err := s.endSegment(ctx, k); err != nil {
			return done, err
		}
	}
	return n, nil
}

// stepWords encodes and accumulates words, which must fit in the open
// sampling interval, a chunk of encBuf at a time. The cycle counters are
// left to endSegment.
//
//nanolint:hotpath shared chunk loop of StepBatch and PlayTape
func (s *Simulator) stepWords(words []uint32) {
	for len(words) > 0 {
		n := min(len(words), len(s.encBuf))
		encoding.EncodeWords(s.enc, s.encBuf[:n], words[:n])
		s.acc.StepBatch(s.encBuf[:n])
		words = words[n:]
	}
}

// endSegment accounts n cycles just driven inside the open sampling
// interval and closes the interval if they fill it. After a close it
// returns the simulator's sticky error, else ctx's: closing an interval
// is the batch paths' only ctx polling point besides their entry.
func (s *Simulator) endSegment(ctx context.Context, n uint64) error {
	s.cycles += n
	s.cycleInInterval += n
	if s.cycleInInterval < s.interval {
		return nil
	}
	s.flush(s.cycleInInterval)
	if s.err != nil {
		return s.err
	}
	return ctx.Err()
}

// SetOnSample replaces the per-sample callback (Config.OnSample) for
// subsequent intervals. Streaming consumers attach a callback for the
// duration of one request and detach it with SetOnSample(nil); the
// simulator must not be stepped concurrently.
func (s *Simulator) SetOnSample(fn func(Sample)) { s.cfg.OnSample = fn }

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
