package nbwp

import (
	"fmt"

	"nanobus/internal/wire"
)

// Every binary payload below is a plain struct with one walk over the
// shared codec (internal/wire): the walk writes the payload and reads it,
// so each layout is stated once. A decode that truncates, leaves bytes
// over, or breaks a field's rule is ErrBadPayload; so is an encode whose
// string outgrows its length prefix.

// payloadErr wraps a codec error as ErrBadPayload.
func payloadErr(what string, err error) error {
	if err != nil {
		return fmt.Errorf("%w: %s: %w", ErrBadPayload, what, err)
	}
	return nil
}

// --- STEP acknowledgement ----------------------------------------------------

// StepAckLen is the fixed ACK payload length for STEP/STEP_IDLE frames.
const StepAckLen = 32

// StepAck is the binary ACK payload of a STEP or STEP_IDLE frame: what
// the batch consumed and where the session's cumulative counters stand.
// Seq and Duplicate ride in the ack frame's header (Seq echo, FlagDuplicate).
type StepAck struct {
	// Words and Idle are the cycles consumed by the acknowledged frame.
	Words uint64
	Idle  uint64
	// Cycles is the session's cumulative cycle count afterwards.
	Cycles uint64
	// Samples is the number of sampling intervals the frame closed.
	Samples uint64
}

func (a *StepAck) walk(c *wire.Codec) {
	c.U64(&a.Words)
	c.U64(&a.Idle)
	c.U64(&a.Cycles)
	c.U64(&a.Samples)
}

// PutStepAck encodes a into buf.
//
//nanolint:hotpath one encode per STEP ack; must not allocate
func PutStepAck(buf *[StepAckLen]byte, a StepAck) {
	c := wire.Writer(buf[:0])
	a.walk(&c)
}

// ParseStepAck decodes a STEP ack payload into a.
//
//nanolint:hotpath one decode per STEP ack; must not allocate
func ParseStepAck(p []byte, a *StepAck) error {
	c := wire.Reader(p)
	a.walk(&c)
	return payloadErr("step ack", c.Close())
}

// --- STEP_IDLE ---------------------------------------------------------------

// PutIdle encodes a STEP_IDLE payload (the idle cycle count).
func PutIdle(buf *[8]byte, n uint64) {
	c := wire.Writer(buf[:0])
	c.U64(&n)
}

// ParseIdle decodes a STEP_IDLE payload.
func ParseIdle(p []byte) (uint64, error) {
	var n uint64
	c := wire.Reader(p)
	c.U64(&n)
	return n, payloadErr("idle", c.Close())
}

// --- SAMPLE ------------------------------------------------------------------

// Sample is the binary wire form of one closed sampling interval. The
// float64 fields travel as IEEE-754 bit patterns, so a streamed sample
// is bit-identical to the library's. Its fields are the server's JSON
// sample's, in the same order, so either converts to the other.
type Sample struct {
	EndCycle    uint64
	EnergyJ     float64
	SelfJ       float64
	CoupAdjJ    float64
	CoupNonAdjJ float64
	AvgTempK    float64
	MaxTempK    float64
	MaxWire     int
	// WireTempsK is present only for sessions created with
	// track_wire_temps.
	WireTempsK []float64
	// Bus travels only in the FlagMultiSample layout; Encoder and
	// Switched, the adaptive controller's tags, only in the
	// FlagAdaptiveSample layout.
	Bus      int
	Encoder  string
	Switched bool
}

// sampleFlags are the frame flags that select a SAMPLE layout: each bit
// adds its fields, and the two together have no layout.
const sampleFlags = FlagMultiSample | FlagAdaptiveSample

// walk codes s in the layout flags select: [bus i32 under
// FlagMultiSample], end cycle u64, the six figures f64, max wire i32,
// wire-temp count u32 and temps f64, [switched bool and encoder name
// u8-prefixed under FlagAdaptiveSample]. Reading reuses s.WireTempsK's
// storage.
func (s *Sample) walk(c *wire.Codec, flags uint8) {
	if flags&FlagMultiSample != 0 {
		c.Int(&s.Bus, 4)
	}
	c.U64(&s.EndCycle)
	c.F64(&s.EnergyJ)
	c.F64(&s.SelfJ)
	c.F64(&s.CoupAdjJ)
	c.F64(&s.CoupNonAdjJ)
	c.F64(&s.AvgTempK)
	c.F64(&s.MaxTempK)
	c.Int(&s.MaxWire, 4)
	n := len(s.WireTempsK)
	c.Count(&n, 8)
	if !c.Writing() {
		if cap(s.WireTempsK) < n {
			s.WireTempsK = make([]float64, n)
		}
		s.WireTempsK = s.WireTempsK[:n]
	}
	for i := range s.WireTempsK {
		c.F64(&s.WireTempsK[i])
	}
	if flags&FlagAdaptiveSample != 0 {
		c.Bool(&s.Switched)
		c.Str(&s.Encoder, 1)
	}
}

// AppendSample appends s to dst in the SAMPLE layout that flags (the
// frame's FlagMultiSample and FlagAdaptiveSample bits) select.
//
//nanolint:hotpath one encode per streamed sample; appends into the caller's reused buffer
func AppendSample(dst []byte, flags uint8, s *Sample) ([]byte, error) {
	if flags&sampleFlags == sampleFlags {
		return dst, fmt.Errorf("%w: no sample layout for flags %#x", ErrBadPayload, flags)
	}
	c := wire.Writer(dst)
	s.walk(&c, flags)
	return c.Written(), payloadErr("sample", c.Err())
}

// ParseSample decodes a SAMPLE payload in the layout flags select into s.
// s.WireTempsK's storage is reused, so a caller that parses into the
// same Sample each time allocates nothing once it has grown.
//
//nanolint:hotpath one decode per streamed sample; reuses the caller's Sample
func ParseSample(p []byte, flags uint8, s *Sample) error {
	if flags&sampleFlags == sampleFlags {
		return fmt.Errorf("%w: no sample layout for flags %#x", ErrBadPayload, flags)
	}
	c := wire.Reader(p)
	s.walk(&c, flags)
	return payloadErr("sample", c.Close())
}

// --- ERROR -------------------------------------------------------------------

// WireError is the decoded form of an ERROR payload. Status carries the
// HTTP-equivalent status so clients map NBWP failures onto the exact
// semantics of the v1 surface; Code is the machine-readable v1 error
// code; Owner is the owning-node hint a clustered server attaches to
// not_owner/moved redirects (a JSON OwnerInfo document, empty
// otherwise); Msg is the human-readable message.
type WireError struct {
	Status int
	Code   string
	Owner  string
	Msg    string
}

// walk codes e: status u16, code and owner (u16-prefixed, the owner
// empty when absent), then the message as the rest of the payload.
func (e *WireError) walk(c *wire.Codec) {
	status := uint16(e.Status)
	c.U16(&status)
	wire.Set(c, &e.Status, int(status))
	c.Str(&e.Code, 2)
	c.Str(&e.Owner, 2)
	c.Str(&e.Msg, 0)
}

// AppendError appends the ERROR payload of e to dst.
func AppendError(dst []byte, e WireError) ([]byte, error) {
	c := wire.Writer(dst)
	e.walk(&c)
	return c.Written(), payloadErr("error", c.Err())
}

// ParseError decodes an ERROR payload.
func ParseError(p []byte) (WireError, error) {
	var e WireError
	c := wire.Reader(p)
	e.walk(&c)
	return e, payloadErr("error", c.Close())
}

// --- RESTORE -----------------------------------------------------------------

// Restore is a RESTORE request. Carrying the id in the payload is what
// makes resurrection work over a fresh connection: the session is gone,
// so there is no live slot binding to name it.
type Restore struct {
	// ID names the session; empty targets the slot's bound session.
	ID string
	// Envelope is a checkpoint envelope; empty loads from the server
	// store.
	Envelope []byte
}

// walk codes r: the id (u16-prefixed), then the envelope as the rest of
// the payload.
func (r *Restore) walk(c *wire.Codec) {
	c.Str(&r.ID, 2)
	c.Bytes(&r.Envelope, 0)
}

// AppendRestore appends the RESTORE payload of r to dst.
func AppendRestore(dst []byte, r Restore) ([]byte, error) {
	c := wire.Writer(dst)
	r.walk(&c)
	return c.Written(), payloadErr("restore", c.Err())
}

// ParseRestore decodes a RESTORE payload; the envelope aliases p.
func ParseRestore(p []byte) (Restore, error) {
	var r Restore
	c := wire.Reader(p)
	r.walk(&c)
	return r, payloadErr("restore", c.Close())
}
