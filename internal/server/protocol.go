// Package server is nanobusd: a long-running HTTP service exposing the
// unified energy/thermal bus model as streaming sessions. A session wraps
// one core.Simulator; trace words arrive as NDJSON or binary batches on
// POST /v1/sessions/{id}/step and per-interval samples flow back either
// incrementally (?stream=samples) or on GET /v1/sessions/{id}/result.
// Sessions are partitioned across shards for lock locality and recycled
// through a keyed pool via Simulator.Reset(), so a hot service pays the
// capacitance extraction and thermal eigendecomposition once per distinct
// configuration, not once per session.
//
// v1 API compatibility promise: the /v1 wire surface is append-only.
// Fields and endpoints may be added; existing JSON field names, endpoint
// paths, error codes, and the binary word format (little-endian uint32)
// are never renamed, removed, or re-typed. Server results are
// bit-identical to an in-process library run of the same trace and
// configuration (JSON float64 round-trips exactly).
package server

import "nanobus/internal/core"

// CreateSessionRequest opens a session (POST /v1/sessions). Zero-valued
// fields take the service defaults noted on each field; unlike the
// library's zero-magic core.Config, an absent coupling_depth selects the
// paper's full model.
type CreateSessionRequest struct {
	// Node is the technology node label: "130nm", "90nm", "65nm", "45nm".
	Node string `json:"node"`
	// Encoding names the low-power scheme; empty means "Unencoded".
	Encoding string `json:"encoding,omitempty"`
	// LengthM is the bus length in meters; zero means the paper's 10 mm.
	LengthM float64 `json:"length_m,omitempty"`
	// IntervalCycles is the sampling interval; zero means the paper's 100K.
	IntervalCycles uint64 `json:"interval_cycles,omitempty"`
	// CouplingDepth truncates the coupling matrix (0 self-only, 1
	// nearest-neighbour, negative all pairs); absent means all pairs.
	CouplingDepth *int `json:"coupling_depth,omitempty"`
	// TrackWireTemps copies per-wire temperatures into every sample.
	TrackWireTemps bool `json:"track_wire_temps,omitempty"`
	// MemoSizeLog2 sizes the session's transition-key memo (2^k
	// entries; a multi-bus session's buses share one); zero selects the
	// default, negative disables memoization. It changes speed only,
	// never a result.
	MemoSizeLog2 int `json:"memo_size_log2,omitempty"`
	// DropSamples disables in-memory sample retention; combine with
	// ?stream=samples step requests for unbounded sessions.
	DropSamples bool `json:"drop_samples,omitempty"`
	// Buses opens a multi-bus session: K identical buses stepped in
	// lockstep with lateral inter-bus thermal coupling. Zero or one means
	// a scalar session. Multi-bus step bodies interleave words cycle-major
	// (words[r*K+k] is bus k's word on relative cycle r), samples carry a
	// bus index, and the result gains per-bus blocks.
	Buses int `json:"buses,omitempty"`
	// BusGapPitches is the edge-to-edge gap between adjacent buses in
	// wire pitches (multi-bus only); zero selects the service default.
	BusGapPitches float64 `json:"bus_gap_pitches,omitempty"`
	// DisableBusCoupling severs the lateral inter-bus conductance so the
	// K buses evolve as independent thermal strips (multi-bus only).
	DisableBusCoupling bool `json:"disable_bus_coupling,omitempty"`
	// Adaptive enables the adaptive encoding controller: the session
	// starts on Adaptive.Base and switches to Adaptive.Cool (and back)
	// at sampling-interval boundaries driven by the peak wire
	// temperature. Mutually exclusive with Encoding and with multi-bus
	// sessions. Samples gain encoder/switched tags and the result an
	// adaptive block.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
}

// AdaptiveSpec is the wire form of core.AdaptiveConfig: the encoder pair
// and the control-law thresholds of an adaptive session.
type AdaptiveSpec struct {
	// Base and Cool name the performance and the thermally relieving
	// encoding scheme; they must differ and both must resolve.
	Base string `json:"base"`
	Cool string `json:"cool"`
	// CeilingK is the peak-wire-temperature ceiling in kelvin the
	// controller defends.
	CeilingK float64 `json:"ceiling_k"`
	// GuardK lowers the switch-to-cool trigger below the ceiling.
	GuardK float64 `json:"guard_k,omitempty"`
	// HysteresisK sets the release band: the controller returns to Base
	// only once the peak temperature falls HysteresisK below the trigger.
	HysteresisK float64 `json:"hysteresis_k,omitempty"`
}

// SessionInfo describes a session (201 of POST /v1/sessions, and GET
// /v1/sessions/{id}).
type SessionInfo struct {
	ID             string  `json:"id"`
	Node           string  `json:"node"`
	Encoding       string  `json:"encoding"`
	Width          int     `json:"width"`
	LengthM        float64 `json:"length_m"`
	IntervalCycles uint64  `json:"interval_cycles"`
	CouplingDepth  int     `json:"coupling_depth"`
	Shard          int     `json:"shard"`
	// Recycled reports whether the session reuses a pooled simulator
	// (bit-identical to a fresh one; see Simulator.Reset).
	Recycled bool `json:"recycled"`
	// Words and IdleCycles are live cumulative counters.
	Words      uint64 `json:"words"`
	IdleCycles uint64 `json:"idle_cycles"`
	// LastSeq is the last acknowledged ?seq= batch (0 when the client
	// has never sent sequenced steps).
	LastSeq uint64 `json:"last_seq,omitempty"`
	// Buses is the bus count K of a multi-bus session (absent for
	// scalar sessions).
	Buses int `json:"buses,omitempty"`
	// Adaptive echoes the controller spec of an adaptive session.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
}

// StepLine is one NDJSON line of a step request body: a batch of data
// words, a count of idle cycles, or both (words first).
type StepLine struct {
	Words []uint32 `json:"words,omitempty"`
	Idle  uint64   `json:"idle,omitempty"`
}

// StepSummary reports what one step request consumed (response of POST
// /v1/sessions/{id}/step).
type StepSummary struct {
	// Words and Idle are the cycles consumed by this request.
	Words uint64 `json:"words"`
	Idle  uint64 `json:"idle"`
	// Cycles is the session's cumulative cycle count afterwards.
	Cycles uint64 `json:"cycles"`
	// Samples is the number of sampling intervals closed by this request.
	Samples uint64 `json:"samples"`
	// Duplicate reports that a ?seq= batch was already applied and this
	// response is an idempotent acknowledgement: nothing was re-stepped.
	Duplicate bool `json:"duplicate,omitempty"`
	// Seq echoes the request's write-ahead sequence number, if any.
	Seq uint64 `json:"seq,omitempty"`
}

// Sample is the wire form of one sampling interval's record.
type Sample struct {
	EndCycle    uint64    `json:"end_cycle"`
	EnergyJ     float64   `json:"energy_j"`
	SelfJ       float64   `json:"self_j"`
	CoupAdjJ    float64   `json:"coup_adj_j"`
	CoupNonAdjJ float64   `json:"coup_non_adj_j"`
	AvgTempK    float64   `json:"avg_temp_k"`
	MaxTempK    float64   `json:"max_temp_k"`
	MaxWire     int       `json:"max_wire"`
	WireTempsK  []float64 `json:"wire_temps_k,omitempty"`
	// Bus tags which bus of a multi-bus session the sample belongs to
	// (absent both for scalar sessions and for bus 0).
	Bus int `json:"bus,omitempty"`
	// Encoder names the scheme that was active during this interval
	// (adaptive sessions only).
	Encoder string `json:"encoder,omitempty"`
	// Switched marks an interval whose closing decision changed the
	// active encoder: the NEXT interval runs the other scheme.
	Switched bool `json:"switched,omitempty"`
}

func fromCoreSample(s core.Sample) Sample {
	return Sample{
		EndCycle:    s.EndCycle,
		EnergyJ:     s.Energy,
		SelfJ:       s.Self,
		CoupAdjJ:    s.CoupAdj,
		CoupNonAdjJ: s.CoupNonAdj,
		AvgTempK:    s.AvgTemp,
		MaxTempK:    s.MaxTemp,
		MaxWire:     s.MaxWire,
		WireTempsK:  s.WireTemps,
		Encoder:     s.Encoder,
		Switched:    s.Switched,
	}
}

// fromCoreBusSample is fromCoreSample with the multi-bus tag applied.
func fromCoreBusSample(bus int, s core.Sample) Sample {
	ws := fromCoreSample(s)
	ws.Bus = bus
	return ws
}

// StreamLine is one NDJSON line of a ?stream=samples step response:
// exactly one field is set per line — samples as they close, then a final
// summary, or a terminal error.
type StreamLine struct {
	Sample  *Sample        `json:"sample,omitempty"`
	Summary *StepSummary   `json:"summary,omitempty"`
	Error   *ErrorResponse `json:"error,omitempty"`
}

// EnergySplit is a whole-bus energy total split by component.
type EnergySplit struct {
	TotalJ      float64 `json:"total_j"`
	SelfJ       float64 `json:"self_j"`
	CoupAdjJ    float64 `json:"coup_adj_j"`
	CoupNonAdjJ float64 `json:"coup_non_adj_j"`
}

// MemoStats is the session's transition-memo effectiveness: the probes
// since the session opened (a recycled simulator's earlier sessions are
// not counted); zero when memoization is disabled.
type MemoStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// Result is the session outcome (GET /v1/sessions/{id}/result). Unless
// ?finish=0, the server first closes the session's partial sampling
// interval, exactly like Bus.Finish. For a multi-bus session the
// top-level Total sums every bus, the temperature aggregates span the
// whole K×W grid (TempsK is the bus-major slab, MaxBus/MaxWire locate
// the hottest wire), Samples is empty, and PerBus carries each bus's
// own totals and samples.
type Result struct {
	ID       string      `json:"id"`
	Cycles   uint64      `json:"cycles"`
	Width    int         `json:"width"`
	Total    EnergySplit `json:"total"`
	AvgTempK float64     `json:"avg_temp_k"`
	MaxTempK float64     `json:"max_temp_k"`
	MaxWire  int         `json:"max_wire"`
	TempsK   []float64   `json:"temps_k"`
	Samples  []Sample    `json:"samples"`
	Memo     MemoStats   `json:"memo"`
	// Buses, MaxBus and PerBus are set only for multi-bus sessions.
	Buses  int         `json:"buses,omitempty"`
	MaxBus int         `json:"max_bus,omitempty"`
	PerBus []BusResult `json:"per_bus,omitempty"`
	// Adaptive is set only for adaptive sessions.
	Adaptive *AdaptiveResult `json:"adaptive,omitempty"`
}

// AdaptiveResult summarizes an adaptive session's controller activity.
type AdaptiveResult struct {
	// Base, Cool and CeilingK echo the session's AdaptiveSpec.
	Base     string  `json:"base"`
	Cool     string  `json:"cool"`
	CeilingK float64 `json:"ceiling_k"`
	// Active names the scheme in effect when the result was taken.
	Active string `json:"active"`
	// Switches lists every encoder switch in cycle order.
	Switches []core.SwitchEvent `json:"switches"`
	// Occupancy reports the cycles spent under each scheme, base first.
	Occupancy []core.EncoderCycles `json:"occupancy"`
}

// BusResult is one bus's slice of a multi-bus Result: the same totals,
// temperature aggregates and samples a scalar session would report.
type BusResult struct {
	Bus      int         `json:"bus"`
	Total    EnergySplit `json:"total"`
	AvgTempK float64     `json:"avg_temp_k"`
	MaxTempK float64     `json:"max_temp_k"`
	MaxWire  int         `json:"max_wire"`
	TempsK   []float64   `json:"temps_k"`
	Samples  []Sample    `json:"samples"`
}

// CloseResponse acknowledges DELETE /v1/sessions/{id}.
type CloseResponse struct {
	ID     string `json:"id"`
	Cycles uint64 `json:"cycles"`
}

// CheckpointInfo acknowledges POST /v1/sessions/{id}/checkpoint: the
// durable snapshot's identity and integrity digest.
type CheckpointInfo struct {
	ID string `json:"id"`
	// Seq is the last acknowledged write-ahead sequence number captured in
	// the checkpoint (0 when the client never sent ?seq=).
	Seq uint64 `json:"seq"`
	// Cycles is the simulated cycle count captured in the checkpoint.
	Cycles uint64 `json:"cycles"`
	// Bytes is the encoded envelope size.
	Bytes int `json:"bytes"`
	// SHA256 is the hex digest of the envelope.
	SHA256 string `json:"sha256"`
	// Stored reports whether the envelope was written to the server's
	// checkpoint store (false for ?download=1 on a store-less server).
	Stored bool `json:"stored"`
}

// RestoreResponse acknowledges PUT /v1/sessions/{id}/restore: where the
// session's state now stands, so clients resume from Seq+1.
type RestoreResponse struct {
	ID string `json:"id"`
	// Seq is the last write-ahead sequence number the restored state has
	// applied; batches up to and including it must NOT be replayed.
	Seq uint64 `json:"seq"`
	// Cycles, Words and IdleCycles are the restored cumulative counters.
	Cycles     uint64 `json:"cycles"`
	Words      uint64 `json:"words"`
	IdleCycles uint64 `json:"idle_cycles"`
	// Resurrected reports that the session did not exist (poisoned pod,
	// process restart) and was rebuilt from the stored checkpoint.
	Resurrected bool `json:"resurrected"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	Sessions int64  `json:"sessions"`
}

// OwnerInfo names the cluster node a redirected request should go to.
// It rides on not_owner/moved errors so clients re-route without a
// second lookup; single-node servers never emit it.
type OwnerInfo struct {
	// Node is the owning member's stable cluster name.
	Node string `json:"node"`
	// URL is the owner's v1 API base URL.
	URL string `json:"url"`
	// NBWP is the owner's NBWP host:port, when it serves the binary
	// protocol.
	NBWP string `json:"nbwp,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// Owner points at the cluster node that owns the session, set only
	// with CodeNotOwner and CodeMoved.
	Owner *OwnerInfo `json:"owner,omitempty"`
}

// Machine-readable error codes of the v1 API.
const (
	CodeBadRequest      = "bad_request"
	CodeUnknownNode     = "unknown_node"
	CodeUnknownEncoding = "unknown_encoding"
	CodeNotFound        = "not_found"
	CodeSessionBusy     = "session_busy"
	CodeBatchTooLarge   = "batch_too_large"
	CodeServerFull      = "server_full"
	CodeDraining        = "draining"
	CodePoisoned        = "poisoned"
	CodeCanceled        = "canceled"
	CodeInternal        = "internal"
	// CodeSeqGap rejects a ?seq= batch that skips ahead of the session's
	// last acknowledged sequence number (the client must rewind).
	CodeSeqGap = "seq_gap"
	// CodeSeqConflict rejects ?seq= traffic after a batch failed mid-apply:
	// the state is past the last acknowledged sequence number, so dedup
	// accounting is unsound until the client restores from a checkpoint.
	CodeSeqConflict = "seq_conflict"
	// CodeNoCheckpoint marks a restore with no stored checkpoint to load.
	CodeNoCheckpoint = "no_checkpoint"
	// CodeNoStore marks a checkpoint/restore on a server with no
	// configured checkpoint store (and no inline blob to fall back on).
	CodeNoStore = "no_store"
	// CodeCheckpointCorrupt marks a checkpoint rejected for structural
	// damage (truncation, checksum mismatch, bad magic/version).
	CodeCheckpointCorrupt = "checkpoint_corrupt"
	// CodeCheckpointMismatch marks a checkpoint whose configuration does
	// not match the session it is being restored into.
	CodeCheckpointMismatch = "checkpoint_mismatch"
	// CodeNotOwner rejects (421) a session request on a cluster node the
	// hash ring does not assign the id to; the Owner field names the node
	// that serves it.
	CodeNotOwner = "not_owner"
	// CodeMoved rejects a request for a session this node migrated away;
	// the Owner field names the node it moved to.
	CodeMoved = "moved"
)
