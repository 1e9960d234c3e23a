// Package energy implements the paper's per-line bus energy dissipation
// model (Sec. 3). For every bus cycle it computes, for each wire i, the
// energy dissipated by
//
//   - the self transition: Eself = 0.5*(Cline + Crep)*Vi^2 (Sec. 3.1), where
//     Vi = Vfinal - Vinitial is in {-Vdd, 0, +Vdd}, and
//   - coupling transitions against every other wire j:
//     Ec(i,j) = 0.5*c(i,j)*(Vi^2 - Vi*Vj) (Sec. 3.2), which yields the
//     Miller-doubled energy c*Vdd^2 per line on a toggle (opposite
//     transitions), 0.5*c*Vdd^2 on a charge/discharge against a quiet
//     line, and 0 between two quiet or two same-direction lines.
//
// Coupling is accounted separately for adjacent (|i-j| == 1) and
// non-adjacent (|i-j| > 1) pairs so the harness can present the paper's
// "Self", "NN" (self + adjacent) and "All" (self + all pairs) variants from
// one simulation pass.
package energy

import (
	"fmt"
	"math/bits"

	"nanobus/internal/capmodel"
)

// Model holds the absolute (length-scaled) electrical parameters of a bus.
type Model struct {
	n    int
	vdd  float64
	vdd2 float64
	// selfCap[i] is (cline*L + Crep) in farads.
	selfCap []float64
	// coup[i][j] is the absolute coupling capacitance in farads.
	coup [][]float64
	// rowSum[i] = sum_j coup[i][j].
	rowSum []float64
}

// Config assembles a Model.
type Config struct {
	// Caps is the per-unit-length capacitance matrix (F/m).
	Caps *capmodel.Matrix
	// Length is the bus length in meters.
	Length float64
	// Vdd is the supply voltage in volts.
	Vdd float64
	// Crep is the total repeater capacitance added to each line in farads
	// (absolute). Zero if the bus has no repeaters.
	Crep float64
}

// New builds an energy model from the configuration.
func New(cfg Config) (*Model, error) {
	if cfg.Caps == nil {
		return nil, fmt.Errorf("energy: nil capacitance matrix")
	}
	n := cfg.Caps.N()
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("energy: bus width %d out of range [1,64]", n)
	}
	if cfg.Length <= 0 {
		return nil, fmt.Errorf("energy: non-positive length %g", cfg.Length)
	}
	if cfg.Vdd <= 0 {
		return nil, fmt.Errorf("energy: non-positive Vdd %g", cfg.Vdd)
	}
	if cfg.Crep < 0 {
		return nil, fmt.Errorf("energy: negative Crep %g", cfg.Crep)
	}
	m := &Model{
		n:       n,
		vdd:     cfg.Vdd,
		vdd2:    cfg.Vdd * cfg.Vdd,
		selfCap: make([]float64, n),
		coup:    make([][]float64, n),
		rowSum:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.selfCap[i] = cfg.Caps.Self(i)*cfg.Length + cfg.Crep
		m.coup[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			c := cfg.Caps.Coupling(i, j) * cfg.Length
			m.coup[i][j] = c
			m.rowSum[i] += c
		}
	}
	return m, nil
}

// N returns the bus width in wires.
func (m *Model) N() int { return m.n }

// Vdd returns the supply voltage.
func (m *Model) Vdd() float64 { return m.vdd }

// SelfCap returns wire i's absolute self capacitance (including repeaters)
// in farads.
func (m *Model) SelfCap(i int) float64 { return m.selfCap[i] }

// CouplingCap returns the absolute coupling capacitance between wires i and
// j in farads.
func (m *Model) CouplingCap(i, j int) float64 { return m.coup[i][j] }

// LineEnergy is one wire's energy for a transition or an accumulation
// window, split by component (joules).
type LineEnergy struct {
	// Self is the self-capacitance energy.
	Self float64
	// CoupAdj is coupling energy against adjacent neighbours (|i-j|==1).
	CoupAdj float64
	// CoupNonAdj is coupling energy against non-adjacent neighbours.
	CoupNonAdj float64
}

// Total returns self + all coupling energy.
func (e LineEnergy) Total() float64 { return e.Self + e.CoupAdj + e.CoupNonAdj }

// TotalNN returns the "NN" model variant: self + adjacent coupling only.
func (e LineEnergy) TotalNN() float64 { return e.Self + e.CoupAdj }

func (e *LineEnergy) add(o LineEnergy) {
	e.Self += o.Self
	e.CoupAdj += o.CoupAdj
	e.CoupNonAdj += o.CoupNonAdj
}

// Transition computes the per-line energies for the bus transition
// prev -> cur. Bit i of the words is wire i's logic value. out must have
// length N and is fully overwritten; the summed energy over all lines is
// returned. The cost is O(s^2 + s) where s is the number of switching
// lines.
func (m *Model) Transition(prev, cur uint64, out []LineEnergy) (LineEnergy, error) {
	if len(out) != m.n {
		return LineEnergy{}, fmt.Errorf("energy: out length %d, want %d", len(out), m.n)
	}
	for i := range out {
		out[i] = LineEnergy{}
	}
	diff := (prev ^ cur) & mask(m.n)
	if diff == 0 {
		return LineEnergy{}, nil
	}
	var idx [64]int
	var les [64]LineEnergy
	s := bits.OnesCount64(diff)
	total := m.transitionSparse(diff, cur&diff, idx[:s], les[:s])
	for a := 0; a < s; a++ {
		out[idx[a]] = les[a]
	}
	return total, nil
}

// transitionSparse computes the energies of the s switching lines of a
// transition. The transition is described by its key: diff is
// the switching mask (already width-masked, non-zero) and rising = cur&diff
// is the subset of switching lines that rise — the per-line energies depend
// on nothing else, because quiet lines contribute their coupling
// capacitance independent of their logic value (Sec. 3.2). idx and les must
// have length s = popcount(diff); idx receives the switching wire indices
// in ascending order, les their energies. The bus-wide total is returned.
func (m *Model) transitionSparse(diff, rising uint64, idx []int, les []LineEnergy) LineEnergy {
	// Switching lines and their normalised transition direction
	// vi = Vi/Vdd in {-1, +1}.
	var dir [64]float64
	s := 0
	for d := diff; d != 0; d &= d - 1 {
		i := bits.TrailingZeros64(d)
		idx[s] = i
		if rising&(1<<uint(i)) != 0 {
			dir[s] = 1 // rising
		} else {
			dir[s] = -1 // falling
		}
		s++
	}
	// Coupling: 0.5*Vdd^2 * sum_j c_ij*(1 - vi*vj), where vj = 0 for quiet
	// lines. Start each switching line from the all-quiet assumption
	// (every j contributes c_ij, pre-split by adjacency), then correct
	// each switching pair once: the contribution becomes c_ij*(1 - vi*vj),
	// i.e. add -c_ij*vi*vj — the same delta on both lines of the pair.
	var coupAdj, coupNon [64]float64
	for a := 0; a < s; a++ {
		i := idx[a]
		row := m.coup[i]
		adj := 0.0
		if i > 0 {
			adj += row[i-1]
		}
		if i < m.n-1 {
			adj += row[i+1]
		}
		coupAdj[a] = adj
		coupNon[a] = m.rowSum[i] - adj
	}
	for a := 0; a < s; a++ {
		i := idx[a]
		row := m.coup[i]
		va := dir[a]
		for b := a + 1; b < s; b++ {
			j := idx[b]
			c := row[j]
			if c == 0 { //nanolint:ignore floateq sparsity skip: an exactly zero coupling capacitance contributes nothing
				continue
			}
			delta := -c * va * dir[b]
			if j == i-1 || j == i+1 {
				coupAdj[a] += delta
				coupAdj[b] += delta
			} else {
				coupNon[a] += delta
				coupNon[b] += delta
			}
		}
	}
	var total LineEnergy
	half := 0.5 * m.vdd2
	for a := 0; a < s; a++ {
		i := idx[a]
		le := LineEnergy{
			Self:       half * m.selfCap[i],
			CoupAdj:    half * coupAdj[a],
			CoupNonAdj: half * coupNon[a],
		}
		les[a] = le
		total.add(le)
	}
	return total
}

// Accumulator drives a Model over a word stream, accumulating per-line
// energies. It tracks the previously transmitted word, so callers just push
// the new word each cycle (or call Idle for cycles in which the bus holds
// its value, which dissipate nothing — the paper's idle assumption).
//
// The window is kept as exact integer pair-pattern counts (see counts.go)
// and turned into energies only when it is read, so a window's energy is a
// pure function of the transitions in it, whatever the order or batching
// of the Step, StepBatch and State/SetState calls that fed them.
type Accumulator struct {
	model *Model
	prev  uint64
	// first marks that no word has been transmitted yet; the first word
	// establishes the initial state without dissipating (the paper's
	// traces likewise start from the first transmitted address).
	first bool

	cycles     uint64
	idleCycles uint64

	counts pairCounts
	// carry is a float window restored from a checkpoint written before
	// the counts existed (NBCP v1/v3). It is added when the window is
	// read and cleared with it; on every fresh run it is zero, and
	// 0 + x == x exactly.
	carry      []LineEnergy
	carryTotal LineEnergy
}

// NewAccumulator returns an accumulator over the model, starting from an
// undriven bus (the first pushed word sets the state free of charge).
func NewAccumulator(m *Model) *Accumulator {
	return &Accumulator{
		model:  m,
		first:  true,
		counts: newPairCounts(m.n),
		carry:  make([]LineEnergy, m.n),
	}
}

// Model returns the underlying energy model.
func (a *Accumulator) Model() *Model { return a.model }

// EnableMemo checks a transition-memo size of 2^sizeLog2 entries
// (0 = DefaultMemoSizeLog2) and does nothing else: the scalar accumulator
// counts pair patterns and needs no memo. The size is still validated so
// configurations shared with the multi-bus accumulator, whose EnableMemo
// does attach one, are rejected in the same places.
func (a *Accumulator) EnableMemo(sizeLog2 int) error {
	_, err := memoSizeLog2(sizeLog2)
	return err
}

// Step transmits word on the bus for one cycle and accrues the transition
// against the previously transmitted word: StepBatch of one word.
func (a *Accumulator) Step(word uint64) {
	w := [1]uint64{word}
	a.StepBatch(w[:])
}

// Idle advances one cycle with the bus holding its previous value; no
// energy is dissipated.
func (a *Accumulator) Idle() {
	a.cycles++
	a.idleCycles++
}

// Cycles returns the number of bus cycles stepped (including idles).
func (a *Accumulator) Cycles() uint64 { return a.cycles }

// IdleCycles returns how many cycles were idle.
func (a *Accumulator) IdleCycles() uint64 { return a.idleCycles }

// Line returns the accumulated energy of wire i.
func (a *Accumulator) Line(i int) LineEnergy {
	a.counts.fold()
	le := a.carry[i]
	le.add(a.counts.energy(a.model, i))
	return le
}

// Lines copies the accumulated per-line energies into dst (length N) and
// returns the bus-wide total, as Total does: an interval flush reads both
// from one pass over the counts.
func (a *Accumulator) Lines(dst []LineEnergy) LineEnergy {
	a.counts.fold()
	tot := a.carryTotal
	for i := range dst {
		e := a.counts.energy(a.model, i)
		tot.add(e)
		dst[i] = a.carry[i]
		dst[i].add(e)
	}
	return tot
}

// Total returns the accumulated bus-wide energy: the carry's total plus
// every line's energy from the counts, summed in wire order.
func (a *Accumulator) Total() LineEnergy {
	a.counts.fold()
	tot := a.carryTotal
	for i := 0; i < a.model.n; i++ {
		tot.add(a.counts.energy(a.model, i))
	}
	return tot
}

// Last returns the word currently held on the bus.
func (a *Accumulator) Last() uint64 { return a.prev }

// Reset zeroes the accumulated energies and cycle counts but keeps the bus
// state (the held word), so interval-based callers can difference cheaply.
func (a *Accumulator) Reset() {
	a.counts.reset()
	clear(a.carry)
	a.carryTotal = LineEnergy{}
	a.cycles = 0
	a.idleCycles = 0
}

// ResetAll returns the accumulator to its initial undriven state: energies,
// cycle counts, and the held word are all cleared.
func (a *Accumulator) ResetAll() {
	a.Reset()
	a.first = true
	a.prev = 0
}

func mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}
