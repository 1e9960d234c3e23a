// Multi-bus accumulation. A MultiAccumulator carries K buses over one
// shared Model. Each bus's window is a scalar Accumulator: its held word
// and its exact pair-pattern counts (counts.go), stepped by the scalar
// stepping loop (batch.go). The buses share one transition-key memo
// (memo.go), so a key one bus installs is a hit for every other bus, and
// the memo drains into each bus's window before it is read. Counts are
// integers, so every bus's window — and every energy read from it — is
// bit-identical to a scalar Accumulator fed the same words, whatever the
// eviction, drain or snapshot schedule.
package energy

import "fmt"

// MultiAccumulator accumulates transition counts for K buses sharing one
// width-W Model. The buses advance in lockstep (AddCycles/IdleN move one
// shared clock); per-bus words flow through StepBus. It is not safe for
// concurrent use.
type MultiAccumulator struct {
	model *Model
	// bus[k] is bus k's window. The shared clock below is the window's
	// cycle count; the buses' own cycle counters are not read.
	bus []*Accumulator

	cycles, idleCycles uint64
}

// NewMultiAccumulator builds a K-bus accumulator over the model, without
// a memo (every word is counted as a memo-less scalar Accumulator counts
// it). Callers on the batch hot path should EnableMemo.
func NewMultiAccumulator(m *Model, buses int) (*MultiAccumulator, error) {
	if m == nil {
		return nil, fmt.Errorf("energy: NewMultiAccumulator over nil model")
	}
	if buses < 1 {
		return nil, fmt.Errorf("energy: multi-accumulator buses %d < 1", buses)
	}
	a := &MultiAccumulator{model: m, bus: make([]*Accumulator, buses)}
	for k := range a.bus {
		a.bus[k] = NewAccumulator(m)
	}
	return a, nil
}

// EnableMemo attaches a transition-key memo of 2^sizeLog2 entries
// (0 selects DefaultMemoSizeLog2) shared by every bus, replacing any
// previous one after draining it.
func (a *MultiAccumulator) EnableMemo(sizeLog2 int) error {
	wins := make([]*pairCounts, len(a.bus))
	for k, b := range a.bus {
		wins[k] = &b.counts
	}
	m, err := newMemo(sizeLog2, wins)
	if err != nil {
		return err
	}
	a.Drain()
	for k, b := range a.bus {
		b.memo, b.bus = m, k
	}
	return nil
}

// Memo returns the attached transition memo, or nil.
func (a *MultiAccumulator) Memo() *Memo { return a.bus[0].memo }

// Buses returns K.
func (a *MultiAccumulator) Buses() int { return len(a.bus) }

// Width returns the per-bus line count W.
func (a *MultiAccumulator) Width() int { return a.model.n }

// StepBus transmits words on bus k, one per cycle. It does not advance
// the shared clock: callers step every bus the same number of words per
// round and account the cycles once via AddCycles (the core kernel does
// that once per stepped segment of rows).
func (a *MultiAccumulator) StepBus(k int, words []uint64) {
	a.bus[k].stepWords(words)
}

// AddCycles advances the shared clock by n cycles (one call per lockstep
// batch round, after every bus stepped its n words).
func (a *MultiAccumulator) AddCycles(n uint64) { a.cycles += n }

// IdleN advances n idle cycles on every bus: the buses hold their values,
// only the counters move.
func (a *MultiAccumulator) IdleN(n uint64) {
	a.cycles += n
	a.idleCycles += n
}

// Drain moves every pending memo count into the bus windows. Reads
// (BusLines, BusState) drain on their own; it is idempotent until the
// next StepBus.
func (a *MultiAccumulator) Drain() { a.bus[0].drain() }

// BusLines copies bus k's window per-line energies into dst (length W)
// and returns its bus-wide energy, exactly as Accumulator.Lines does.
func (a *MultiAccumulator) BusLines(k int, dst []LineEnergy) LineEnergy {
	return a.bus[k].Lines(dst)
}

// Cycles returns the shared window cycle count.
func (a *MultiAccumulator) Cycles() uint64 { return a.cycles }

// IdleCycles returns the shared window idle-cycle count.
func (a *MultiAccumulator) IdleCycles() uint64 { return a.idleCycles }

// Reset clears the windows (counts, pending memo counts and counters)
// for the next sampling interval, keeping the held words and the memo.
func (a *MultiAccumulator) Reset() {
	a.cycles = 0
	a.idleCycles = 0
	for _, b := range a.bus {
		b.Reset()
	}
}

// ResetAll additionally forgets the held words (every bus transmits a
// "first" word next) and keeps the warm memo.
func (a *MultiAccumulator) ResetAll() {
	a.cycles = 0
	a.idleCycles = 0
	for _, b := range a.bus {
		b.ResetAll()
	}
}

// BusState returns bus k's serializable state: its Accumulator's, with
// the shared cycle counters, with pending memo counts in the window.
func (a *MultiAccumulator) BusState(k int) AccumulatorState {
	st := a.bus[k].State()
	st.Cycles, st.IdleCycles = a.cycles, a.idleCycles
	return st
}

// SetBusState overwrites bus k's state from a snapshot. The shared cycle
// counters take the snapshot's values (every bus snapshot carries the
// same lockstep counters).
func (a *MultiAccumulator) SetBusState(k int, st AccumulatorState) error {
	if err := a.bus[k].SetState(st); err != nil {
		return err
	}
	a.cycles, a.idleCycles = st.Cycles, st.IdleCycles
	return nil
}
