// Package capmodel builds the bus capacitance matrices consumed by the
// energy model. Absolute self and adjacent-coupling values come from the
// paper's Table 1 (ITRS-2001 / FastCap); non-adjacent couplings extend the
// adjacent value with per-distance decay ratios calibrated from our
// boundary-element extraction (package extract), mirroring the paper's use
// of FastCap for the full matrix (Sec. 3.2.1).
package capmodel

import (
	"fmt"

	"nanobus/internal/extract"
	"nanobus/internal/geometry"
	"nanobus/internal/itrs"
)

// Matrix is a per-unit-length bus capacitance description: Self[i] is wire
// i's capacitance to ground in F/m and Coupling[i][j] (symmetric, zero
// diagonal) the inter-wire coupling in F/m.
type Matrix struct {
	n        int
	self     []float64
	coupling [][]float64
}

// N returns the number of wires.
func (m *Matrix) N() int { return m.n }

// Self returns wire i's self (ground) capacitance in F/m.
func (m *Matrix) Self(i int) float64 { return m.self[i] }

// Coupling returns the coupling capacitance between wires i and j in F/m.
func (m *Matrix) Coupling(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.coupling[i][j]
}

// CouplingRow returns wire i's coupling row (do not modify).
func (m *Matrix) CouplingRow(i int) []float64 { return m.coupling[i] }

// RowSum returns the sum of wire i's couplings to all other wires in F/m.
func (m *Matrix) RowSum(i int) float64 {
	s := 0.0
	for _, c := range m.coupling[i] {
		s += c
	}
	return s
}

// Total returns wire i's total capacitance (self + all couplings) in F/m.
func (m *Matrix) Total(i int) float64 { return m.self[i] + m.RowSum(i) }

// Truncate returns a copy with couplings beyond maxDist zeroed. maxDist=1
// keeps only nearest-neighbour coupling (the paper's "NN" model); maxDist=0
// keeps no coupling at all ("Self"); a large maxDist keeps everything
// ("All").
func (m *Matrix) Truncate(maxDist int) *Matrix {
	out := newMatrix(m.n)
	copy(out.self, m.self)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			if d != 0 && d <= maxDist {
				out.coupling[i][j] = m.coupling[i][j]
			}
		}
	}
	return out
}

func newMatrix(n int) *Matrix {
	m := &Matrix{n: n, self: make([]float64, n), coupling: make([][]float64, n)}
	for i := range m.coupling {
		m.coupling[i] = make([]float64, n)
	}
	return m
}

// DecayModel gives the coupling at neighbour distance d >= 1 as a fraction
// of the adjacent coupling: ratio 1 at d=1, decaying with distance.
type DecayModel struct {
	// Ratios[d-1] is coupling(d)/coupling(1). Ratios[0] must be 1.
	// Distances beyond len(Ratios) have zero coupling.
	Ratios []float64
}

// At returns the decay ratio at distance d (>= 1).
func (d DecayModel) At(dist int) float64 {
	if dist < 1 || dist > len(d.Ratios) {
		return 0
	}
	return d.Ratios[dist-1]
}

// Validate checks the decay model's invariants.
func (d DecayModel) Validate() error {
	if len(d.Ratios) == 0 {
		return fmt.Errorf("capmodel: empty decay model")
	}
	if d.Ratios[0] != 1 { //nanolint:ignore floateq the decay table's distance-1 entry is defined to be exactly 1
		return fmt.Errorf("capmodel: decay at distance 1 is %g, want 1", d.Ratios[0])
	}
	for i := 1; i < len(d.Ratios); i++ {
		if d.Ratios[i] < 0 || d.Ratios[i] > d.Ratios[i-1] {
			return fmt.Errorf("capmodel: decay not non-increasing at distance %d (%g after %g)",
				i+1, d.Ratios[i], d.Ratios[i-1])
		}
	}
	return nil
}

// DefaultDecay is the per-node decay calibrated offline from this module's
// own BEM extractor on a 15-wire ITRS-geometry bus (see capmodel tests,
// which re-derive these from a fresh extraction and assert agreement).
// The ratios are nearly node-independent, matching the paper's observation
// that the relative non-adjacent contribution stays roughly constant with
// scaling.
func DefaultDecay(node itrs.Node) DecayModel {
	switch node.FeatureNm {
	case 130:
		return DecayModel{Ratios: []float64{1, 0.0402, 0.0142, 0.0077, 0.0049, 0.0036}}
	case 90:
		return DecayModel{Ratios: []float64{1, 0.0388, 0.0137, 0.0074, 0.0048, 0.0034}}
	case 65:
		return DecayModel{Ratios: []float64{1, 0.0381, 0.0133, 0.0071, 0.0046, 0.0033}}
	case 45:
		return DecayModel{Ratios: []float64{1, 0.0374, 0.0130, 0.0069, 0.0044, 0.0032}}
	default:
		// Generic: the 90 nm profile.
		return DecayModel{Ratios: []float64{1, 0.0388, 0.0137, 0.0074, 0.0048, 0.0034}}
	}
}

// FromNode builds the n-wire capacitance matrix for a technology node:
// Table 1 cline/cinter anchored, non-adjacent couplings from the decay
// model.
func FromNode(node itrs.Node, n int, decay DecayModel) (*Matrix, error) {
	if n < 1 {
		return nil, fmt.Errorf("capmodel: bus width %d < 1", n)
	}
	if err := decay.Validate(); err != nil {
		return nil, err
	}
	m := newMatrix(n)
	for i := 0; i < n; i++ {
		m.self[i] = node.CLine
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			if d >= 1 {
				m.coupling[i][j] = node.CInter * decay.At(d)
			}
		}
	}
	return m, nil
}

// CalibrateDecay runs the extractor on a wires-wide bus with the node's
// geometry and returns the measured decay model up to maxDist.
func CalibrateDecay(node itrs.Node, wires, maxDist int, opts extract.Options) (DecayModel, error) {
	layout := geometry.BusLayout{
		Wires: wires,
		W:     node.WireWidth, T: node.WireThickness,
		S: node.Spacing(), H: node.ILDHeight,
		EpsRel: node.EpsRel,
	}
	res, _, err := extract.ExtractBus(layout, opts)
	if err != nil {
		return DecayModel{}, err
	}
	ratios := extract.CouplingDecay(res, maxDist)
	return DecayModel{Ratios: ratios}, nil
}
