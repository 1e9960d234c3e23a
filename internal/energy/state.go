package energy

import "fmt"

// AccumulatorState is the serializable snapshot of an Accumulator: the bus
// word it holds, the first-word flag, cycle counters, and the window
// accumulated so far.
//
// The window is the pair-pattern counts (Toggles and Pairs) plus a float
// carry (Total and Lines) that is non-zero only after restoring a
// checkpoint written before the counts existed. A MultiAccumulator bus
// has the same state: each bus's window is a scalar Accumulator.
type AccumulatorState struct {
	// Prev is the word currently held on the bus (width-masked).
	Prev uint64
	// First marks that no word has been transmitted yet.
	First bool
	// Cycles and IdleCycles are the window's cycle counters.
	Cycles, IdleCycles uint64
	// Total is the window's float bus-wide energy.
	Total LineEnergy
	// Lines is the window's float per-line energy (length N).
	Lines []LineEnergy
	// Toggles is T_i, each wire's transitions in the window (length N,
	// or nil for no counts).
	Toggles []uint64
	// Pairs is P_ij for i < j in row-major order (length N(N-1)/2, or
	// nil for no counts); see counts.go.
	Pairs []int64
}

// State returns a deep copy of the accumulator's serializable state,
// pending memo counts drained into the window.
func (a *Accumulator) State() AccumulatorState {
	a.drain()
	a.counts.fold()
	toggles, pairs := a.counts.export()
	return AccumulatorState{
		Prev:       a.prev,
		First:      a.first,
		Cycles:     a.cycles,
		IdleCycles: a.idleCycles,
		Total:      a.carryTotal,
		Lines:      append([]LineEnergy(nil), a.carry...),
		Toggles:    toggles,
		Pairs:      pairs,
	}
}

// SetState overwrites the accumulator's state, pending memo counts
// included, from a snapshot taken by State on an accumulator over the
// same model. A state without counts
// (nil Toggles and Pairs) restores an empty count window under its float
// carry.
func (a *Accumulator) SetState(st AccumulatorState) error {
	n := a.model.n
	if len(st.Lines) != n {
		return fmt.Errorf("energy: state has %d lines, accumulator has %d", len(st.Lines), n)
	}
	if st.Toggles != nil || st.Pairs != nil {
		if len(st.Toggles) != n || len(st.Pairs) != n*(n-1)/2 {
			return fmt.Errorf("energy: state has %d toggle and %d pair counts, a %d-wire accumulator needs %d and %d",
				len(st.Toggles), len(st.Pairs), n, n, n*(n-1)/2)
		}
	}
	a.drain()
	a.prev = st.Prev & mask(n)
	a.first = st.First
	a.cycles = st.Cycles
	a.idleCycles = st.IdleCycles
	a.carryTotal = st.Total
	copy(a.carry, st.Lines)
	a.counts.load(st.Toggles, st.Pairs)
	return nil
}
