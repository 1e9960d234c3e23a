// Package nanobus is a from-scratch Go implementation of the unified bus
// energy-dissipation and thermal model of Sundaresan & Mahapatra,
// "Accurate Energy Dissipation and Thermal Modeling for Nanometer-Scale
// Buses" (HPCA 2005), together with every substrate the paper's evaluation
// depends on: ITRS-2001 technology parameters, a boundary-element
// capacitance extractor, delay-optimal repeater insertion, bus-invert
// family encoders, a RISC CPU + cache simulator producing SPEC-like
// address traces, and an experiment harness that regenerates each of the
// paper's tables and figures.
//
// The package is a facade: it re-exports the stable public surface of the
// internal packages through type aliases, so downstream users program
// against nanobus.* names only.
//
// Quick start:
//
//	sim, err := nanobus.NewBus(nanobus.BusConfig{Node: nanobus.Node130})
//	if err != nil { ... }
//	sim.StepWord(0x1000)
//	sim.StepWord(0x1004)
//	if err := sim.Finish(); err != nil { ... }
//	fmt.Println(sim.TotalEnergy().Total(), sim.Temps())
//
// See examples/ for complete programs and DESIGN.md for the system map.
package nanobus

import (
	"nanobus/internal/capmodel"
	"nanobus/internal/core"
	"nanobus/internal/delay"
	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/expt"
	"nanobus/internal/extract"
	"nanobus/internal/extract3d"
	"nanobus/internal/fdm"
	"nanobus/internal/geometry"
	"nanobus/internal/itrs"
	"nanobus/internal/reliability"
	"nanobus/internal/repeater"
	"nanobus/internal/thermal"
	"nanobus/internal/trace"
	"nanobus/internal/workload"
)

// --- Technology nodes (ITRS-2001, the paper's Table 1) ---------------------

// Node describes one technology node's global-interconnect parameters.
type Node = itrs.Node

// The paper's four nodes.
var (
	Node130 = itrs.N130
	Node90  = itrs.N90
	Node65  = itrs.N65
	Node45  = itrs.N45
)

// Nodes returns the four ITRS nodes, oldest first.
func Nodes() []Node { return itrs.Nodes() }

// NodeByName resolves "130nm", "90nm", "65nm" or "45nm".
func NodeByName(name string) (Node, bool) { return itrs.ByName(name) }

// ResolveNode is NodeByName with a typed error: unknown labels return an
// error satisfying errors.Is(err, ErrUnknownNode).
func ResolveNode(name string) (Node, error) { return itrs.Resolve(name) }

// --- Typed errors -----------------------------------------------------------
//
// The facade's fallible constructors return errors wrapping these
// sentinels, testable with errors.Is. Bus methods that can close a
// sampling interval — StepWord, StepIdle, StepBatch, StepIdleBatch, and
// Finish — can poison the simulator's sticky Err(); the sticky error wraps
// ErrSimulatorPoisoned, and Bus.Reset clears it.
var (
	// ErrUnknownEncoding is returned (wrapped) by NewEncoder, NewDecoder
	// and WithEncoding for unrecognised scheme names.
	ErrUnknownEncoding = encoding.ErrUnknownScheme
	// ErrUnknownNode is returned (wrapped) by ResolveNode for
	// unrecognised node labels.
	ErrUnknownNode = itrs.ErrUnknownNode
	// ErrSimulatorPoisoned marks a Bus whose interval flush failed; see
	// Bus.Err.
	ErrSimulatorPoisoned = core.ErrPoisoned
	// ErrCheckpointCorrupt marks a Bus.Restore blob rejected for
	// structural damage: truncation, bad magic, unsupported version, or
	// checksum mismatch.
	ErrCheckpointCorrupt = core.ErrCheckpointCorrupt
	// ErrCheckpointMismatch marks a structurally valid checkpoint taken
	// under a different bus configuration than the Restore target's.
	ErrCheckpointMismatch = core.ErrCheckpointMismatch
)

// --- Bus simulation (the paper's unified model) ----------------------------

// BusConfig configures a bus simulator; see the field docs on core.Config.
type BusConfig = core.Config

// Bus drives one address bus through the per-line energy model and the
// thermal-RC network.
type Bus = core.Simulator

// Sample is one sampling interval's energy/temperature record.
type Sample = core.Sample

// LineEnergy splits a wire's energy into self, adjacent-coupling, and
// non-adjacent-coupling components.
type LineEnergy = energy.LineEnergy

// NewBus builds a bus simulator from an explicit config. BusConfig is the
// zero-magic escape hatch: its zero values mean exactly what core.Config
// documents (self-only coupling, default length/interval). Prefer New for
// the option-based constructor with the paper's full model as default.
func NewBus(cfg BusConfig) (*Bus, error) { return core.New(cfg) }

// PairResult bundles the IA and DA simulators after a RunPair run.
type PairResult = core.PairResult

// RunPair drives separate IA and DA bus simulators from one trace source.
var RunPair = core.RunPair

// RunPairContext is RunPair with cancellation: the context is checked once
// per sampling interval, so cancellation stops the run loop within one
// interval's worth of cycles.
var RunPairContext = core.RunPairContext

// RunSingle drives one simulator from a trace's "ia" or "da" stream.
var RunSingle = core.RunSingle

// RunSingleContext is RunSingle with per-sampling-interval cancellation.
var RunSingleContext = core.RunSingleContext

// DefaultLength is the paper's 10 mm global bus length.
const DefaultLength = core.DefaultLength

// DefaultIntervalCycles is the paper's 100K-cycle sampling interval.
const DefaultIntervalCycles = core.DefaultIntervalCycles

// --- Encodings --------------------------------------------------------------

// Encoder maps data words to physical bus words.
type Encoder = encoding.Encoder

// Decoder recovers data words.
type Decoder = encoding.Decoder

// NewEncoder returns an encoder by name: "Unencoded", "BI", "OEBI", "CBI",
// "Gray", "T0".
func NewEncoder(name string) (Encoder, error) { return encoding.New(name) }

// NewDecoder returns the matching decoder.
func NewDecoder(name string) (Decoder, error) { return encoding.NewDecoder(name) }

// EncodingSchemes lists every implemented scheme.
func EncodingSchemes() []string { return encoding.AllSchemes() }

// CrosstalkHistogram grades a word stream by coupling class (0C..4C).
type CrosstalkHistogram = encoding.CrosstalkHistogram

// NewCrosstalkHistogram returns a histogram for a width-wire bus.
func NewCrosstalkHistogram(width int) *CrosstalkHistogram {
	return encoding.NewCrosstalkHistogram(width)
}

// CrosstalkClass grades one wire's transition (see encoding.CrosstalkClass).
var CrosstalkClass = encoding.CrosstalkClass

// --- Traces and workloads ----------------------------------------------------

// TraceCycle is one committed-instruction slot on the address buses.
type TraceCycle = trace.Cycle

// TraceSource yields consecutive bus cycles.
type TraceSource = trace.Source

// Benchmark is one of the eight SPEC-like synthetic programs.
type Benchmark = workload.Benchmark

// Benchmarks returns the paper's eight benchmarks (integer first).
func Benchmarks() []Benchmark { return workload.All() }

// BenchmarksWithExtras adds the extra workloads (gzip, equake) beyond the
// paper's set.
func BenchmarksWithExtras() []Benchmark { return workload.AllWithExtras() }

// BenchmarkByName resolves eon, crafty, twolf, mcf, applu, swim, art, ammp.
func BenchmarkByName(name string) (Benchmark, bool) { return workload.ByName(name) }

// NewSyntheticTrace returns the statistical address-stream generator.
func NewSyntheticTrace(cfg trace.SynthConfig) TraceSource { return trace.NewSynth(cfg) }

// DefaultSynthConfig returns an integer-program-like generator config.
var DefaultSynthConfig = trace.DefaultSynthConfig

// --- Capacitance extraction ---------------------------------------------------

// BusLayout is a coplanar bus cross-section for extraction.
type BusLayout = geometry.BusLayout

// ExtractionResult is a Maxwell capacitance matrix in F/m.
type ExtractionResult = extract.Result

// ExtractionOptions tune BEM accuracy.
type ExtractionOptions = extract.Options

// CapacitanceDistribution is the Fig. 1(b) breakdown.
type CapacitanceDistribution = extract.BusDistribution

// ExtractBus runs the boundary-element extractor on a bus layout.
func ExtractBus(layout BusLayout, opts ExtractionOptions) (*ExtractionResult, CapacitanceDistribution, error) {
	return extract.ExtractBus(layout, opts)
}

// Box is an axis-aligned 3-D conductor for the 3-D extractor.
type Box = extract3d.Box

// Extraction3DResult is a 3-D Maxwell capacitance matrix in farads.
type Extraction3DResult = extract3d.Result

// Extraction3DOptions tune the 3-D solver.
type Extraction3DOptions = extract3d.Options

// Extract3D runs the 3-D boundary-element extractor (the FastCap-style
// solver; see internal/extract3d).
var Extract3D = extract3d.Extract

// BusBoxes3D lays out a finite-length coplanar bus for Extract3D.
var BusBoxes3D = extract3d.BusBoxes

// CapacitanceMatrix is the per-unit-length bus capacitance description
// consumed by the energy model.
type CapacitanceMatrix = capmodel.Matrix

// NewCapacitanceMatrix anchors Table 1 values with the node's calibrated
// non-adjacent decay.
func NewCapacitanceMatrix(node Node, wires int) (*CapacitanceMatrix, error) {
	return capmodel.FromNode(node, wires, capmodel.DefaultDecay(node))
}

// --- Repeaters and thermal -----------------------------------------------------

// RepeaterPlan is a delay-optimal insertion result.
type RepeaterPlan = repeater.Plan

// PlanRepeaters computes the delay-optimal plan for a line of the given
// length on the node.
func PlanRepeaters(node Node, length float64) (RepeaterPlan, error) {
	return repeater.InsertDefault(node, length)
}

// ThermalNetwork is the bus thermal-RC network (paper Sec. 4): a
// one-bus view of the thermal grid, advanced by the exact interval
// propagator. Temp, MaxTemp and AvgTemp take a wire index; Advance,
// SteadyState, SetAmbient and SetTemps reject non-finite inputs.
type ThermalNetwork = thermal.Network

// ThermalOptions configure NewThermalNetwork.
type ThermalOptions = thermal.NodeOptions

// NewThermalNetwork builds the network for a wires-wide bus on the node.
func NewThermalNetwork(node Node, wires int, opts ThermalOptions) (*ThermalNetwork, error) {
	return thermal.NewFromNode(node, wires, opts)
}

// InterLayerRise evaluates the paper's Eq. 7 heating correction in kelvin.
func InterLayerRise(node Node) float64 { return thermal.InterLayerRise(node) }

// FieldGrid is the 2-D finite-difference thermal field solver used to
// cross-validate the lumped RC network.
type FieldGrid = fdm.Grid

// FieldOptions configure the field discretisation.
type FieldOptions = fdm.Options

// NewFieldCrossSection builds the finite-difference grid of a bus
// cross-section with per-wire line power (W/m).
func NewFieldCrossSection(node Node, power []float64, ambient float64, opts FieldOptions) (*FieldGrid, error) {
	return fdm.NewBusCrossSection(node, power, ambient, opts)
}

// --- Experiments (the paper's tables and figures) --------------------------------

// Experiment result and option types.
type (
	// Table1Row is one node's Table 1 column plus derived model values.
	Table1Row = expt.Table1Row
	// Fig1BRow is one node's capacitance distribution.
	Fig1BRow = expt.Fig1BRow
	// Fig1BOptions tunes the Fig. 1(b) extraction.
	Fig1BOptions = expt.Fig1BOptions
	// Sec33Row quantifies the non-adjacent coupling study.
	Sec33Row = expt.Sec33Row
	// Sec33Options configures the Sec. 3.3 study.
	Sec33Options = expt.Sec33Options
	// Fig3Cell is one Fig. 3 energy bar.
	Fig3Cell = expt.Fig3Cell
	// Fig3Options configures the encoding study.
	Fig3Options = expt.Fig3Options
	// Fig4Series is one transient energy/temperature series.
	Fig4Series = expt.Fig4Series
	// Fig4Options configures the transient study.
	Fig4Options = expt.Fig4Options
	// Fig5Result is the idle-window study outcome.
	Fig5Result = expt.Fig5Result
	// Fig5Options configures the idle-window study.
	Fig5Options = expt.Fig5Options
)

// Experiment drivers; each regenerates one of the paper's tables/figures.
var (
	Table1 = expt.Table1
	Fig1B  = expt.Fig1B
	Sec33  = expt.Sec33
	Fig3   = expt.Fig3
	Fig4   = expt.Fig4
	Fig5   = expt.Fig5
)

// --- Extension analyses (paper Secs. 1, 5.3.1, 6 follow-ons) ----------------

// Extension experiment types.
type (
	// L2BusResult is the L1-to-L2 address-bus study outcome.
	L2BusResult = expt.L2BusResult
	// L2BusOptions configures the L2 bus study.
	L2BusOptions = expt.L2BusOptions
	// SubstrateResult is the substrate-variation study outcome.
	SubstrateResult = expt.SubstrateResult
	// ReliabilityParams configure Black's-equation EM lifetimes.
	ReliabilityParams = reliability.Params
	// BusReliability grades a bus's per-wire EM lifetimes.
	BusReliability = reliability.BusAssessment
	// DelayReport is the temperature-dependent delay analysis of a node.
	DelayReport = delay.Report
)

// Extension drivers.
var (
	// L2Bus drives the L1->L2 address bus through the cache hierarchy.
	L2Bus = expt.L2Bus
	// Substrate runs the combined substrate-variation study.
	Substrate = expt.Substrate
	// AssessReliability grades per-wire electromigration lifetime.
	AssessReliability = reliability.AssessBus
	// RelativeMTTF evaluates Black's equation against a reference point.
	RelativeMTTF = reliability.RelativeMTTF
	// AnalyzeDelay reports thermal delay degradation and RLC damping for
	// all nodes at the given wire temperature (0 = ambient + 20 K).
	AnalyzeDelay = delay.AnalyzeAll
	// DampingFactor classifies a line's RLC damping (>1: over-damped,
	// the paper's RC-model validity condition).
	DampingFactor = delay.DampingFactor
)
