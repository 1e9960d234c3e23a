// Compiled trace tapes. The sweep drivers replay one captured trace
// window through many simulator configurations; pulling the window
// cycle-by-cycle through trace.Source costs an interface dispatch and a
// branch pair per cycle per replay. A Tape compiles the window once into
// its run-length form — alternating batches of driven words and idle runs
// for one bus — so every replay is a handful of StepBatch/StepIdleBatch
// calls over shared read-only slices: zero allocations, no per-cycle
// dispatch, and bit-identical results (the same words and idles reach the
// accumulator in the same order as the per-cycle loop).
package core

import (
	"context"
	"fmt"

	"nanobus/internal/trace"
)

// tapeRun is one alternation of a tape: words driven words followed by
// idle held cycles.
type tapeRun struct {
	words uint32
	idle  uint64
}

// Tape is a run-length compiled single-bus trace: the exact word/idle
// cycle sequence one bus sees over a captured window. Tapes are immutable
// after compilation and safe to replay concurrently from many goroutines.
type Tape struct {
	words  []uint32
	runs   []tapeRun
	cycles uint64
}

// CompileTape consumes up to maxCycles cycles from src and compiles the
// stream of the given bus kind ("ia" or "da") into a tape. It returns the
// tape and the number of cycles consumed (less than maxCycles only if the
// source ended first).
func CompileTape(src trace.Source, kind string, maxCycles uint64) (*Tape, error) {
	if kind != "ia" && kind != "da" {
		return nil, fmt.Errorf("core: unknown bus kind %q", kind)
	}
	t := &Tape{}
	var run tapeRun
	flush := func() {
		if run.words > 0 || run.idle > 0 {
			t.runs = append(t.runs, run)
			run = tapeRun{}
		}
	}
	//nanolint:ignore ctxpoll one-shot bounded compile step, not a run loop; PlayTape carries the cancellable replay
	for t.cycles < maxCycles {
		c, ok := src.Next()
		if !ok {
			break
		}
		t.cycles++
		valid, addr := c.IValid, c.IAddr
		if kind == "da" {
			valid, addr = c.DValid, c.DAddr
		}
		if valid {
			// A word after an idle run starts a new alternation.
			if run.idle > 0 {
				flush()
			}
			t.words = append(t.words, addr)
			run.words++
		} else {
			run.idle++
		}
	}
	flush()
	return t, nil
}

// Words returns how many cycles drive a word (the rest are idle).
func (t *Tape) Words() uint64 { return uint64(len(t.words)) }

// PlayTape replays the tape through the simulator — exactly equivalent to
// driving StepWord/StepIdle per cycle, with the batch pipeline's cost
// profile. It steps one sampling-interval segment at a time: the words of
// every run inside the open interval go through one encode-and-accumulate
// pass and its idle cycles through one IdleN. Idle cycles touch neither
// the encoder nor the energy, so moving them after the segment's words
// changes nothing. ctx is polled on entry and once per closed sampling
// interval. It does not call Finish; like the run loops' cancellation
// contract, a ctx or poisoning error returns immediately with the partial
// state inspectable.
func (s *Simulator) PlayTape(ctx context.Context, t *Tape) error {
	if s.err != nil {
		return s.err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w, next := 0, 0
	var run tapeRun // the unplayed rest of the current run
	for {
		left := s.interval - s.cycleInInterval
		words, idle := 0, uint64(0)
		for left > 0 {
			if run == (tapeRun{}) {
				if next == len(t.runs) {
					break
				}
				run, next = t.runs[next], next+1
			}
			n := min(uint64(run.words), left)
			k := min(run.idle, left-n)
			run.words -= uint32(n)
			run.idle -= k
			words += int(n)
			idle += k
			left -= n + k
		}
		if words == 0 && idle == 0 {
			return nil
		}
		s.stepRows(t.words[w : w+words])
		s.acc.IdleN(idle)
		w += words
		if err := s.endSegment(ctx, uint64(words)+idle); err != nil {
			return err
		}
	}
}
