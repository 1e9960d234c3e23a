// Package nbwp defines NBWP, the Nanobus Binary Wire Protocol: a
// length-prefixed little-endian framing over persistent TCP that replaces
// per-batch HTTP on the step hot path. One connection multiplexes up to
// 255 sessions (one per slot) and the client pipelines STEP frames
// without waiting for acknowledgements; the server answers every
// client frame with exactly one ACK or ERROR frame *in request order*,
// so correlation needs no request ids — a FIFO of in-flight requests on
// the client matches acks one-for-one.
//
// Every frame starts with a fixed 16-byte header:
//
//	offset  size  field
//	0       4     magic "NBWP"
//	4       1     protocol version (1)
//	5       1     frame type (Type*)
//	6       1     flags (Flag*)
//	7       1     session slot (1-255; 0 = connection scope)
//	8       4     seq (uint32 LE; write-ahead number under FlagSeq,
//	              echoed on the matching ACK/ERROR)
//	12      3     payload length (uint24 LE, at most MaxPayload)
//	15      1     header CRC: low byte of CRC-32 (IEEE) over bytes 0-14
//
// The payload follows immediately; its layout depends on the type (see
// the Type constants). Binary payloads (payload.go) are each one walk
// on the codec internal/wire shares with the checkpoint formats:
// integers are little-endian and floats IEEE-754 bit patterns. Structured
// control payloads (session configs, results) are the same JSON
// documents as the v1 HTTP surface, so figures observed over NBWP are
// bit-identical to HTTP.
//
// Durability composes with the PR 5 machinery unchanged: a STEP frame
// carrying FlagSeq is the binary twin of POST .../step?seq=N — applied
// exactly once, acknowledged idempotently (FlagDuplicate) on replay — so
// a client that reconnects after a crash replays from the last
// acknowledged sequence number and never double-counts energy.
package nbwp

import "errors"

// Magic opens every frame header.
const Magic = "NBWP"

// Version is the protocol version this package speaks. The HELLO
// exchange pins it: a server that cannot speak the client's version
// answers ERROR and closes.
const Version = 1

// HeaderLen is the fixed frame header size in bytes.
const HeaderLen = 16

// MaxPayload is the largest payload one frame can carry (the length
// field is 24 bits). Readers typically enforce a much smaller
// application bound; see ReadFrame.
const MaxPayload = 1<<24 - 1

// Type identifies what a frame means and how its payload is laid out.
type Type uint8

// Frame types. Directions are client→server unless noted.
const (
	// TypeHello opens a connection (empty payload; header version is the
	// negotiation). The server acks with an empty payload.
	TypeHello Type = 0x01
	// TypeOpen binds a session to the header slot. Payload: a
	// CreateSessionRequest JSON document, or under FlagAttach the id of
	// an existing session. Ack payload: SessionInfo JSON.
	TypeOpen Type = 0x02
	// TypeStep feeds data words to the slot's session. Payload:
	// little-endian uint32 words (the HTTP binary body format). Under
	// FlagSeq the header seq is the write-ahead idempotency number. Ack
	// payload: StepAck (binary, fixed length).
	TypeStep Type = 0x03
	// TypeStepIdle advances the slot's session idle cycles. Payload:
	// uint64 LE cycle count. Ack payload: StepAck.
	TypeStepIdle Type = 0x04
	// TypeAck (server→client) acknowledges the oldest unacknowledged
	// client frame, echoing its slot and seq. Payload depends on the
	// acknowledged type.
	TypeAck Type = 0x05
	// TypeSample (server→client) streams one closed sampling interval
	// for a slot opened with FlagStream. Payload: Sample (binary) in the
	// layout the FlagMultiSample and FlagAdaptiveSample bits select.
	TypeSample Type = 0x06
	// TypeCheckpoint snapshots the slot's session into the server store
	// (ack payload: CheckpointInfo JSON), or under FlagDownload returns
	// the raw envelope inline (ack payload: envelope bytes).
	TypeCheckpoint Type = 0x07
	// TypeRestore rewinds or resurrects a session and binds it to the
	// header slot. Payload: Restore — a session id (empty to target the
	// slot's bound session) plus an optional checkpoint envelope (absent
	// to load from the server store). Under FlagStream the slot streams
	// SAMPLE frames, as after an OPEN. Ack payload: RestoreResponse JSON.
	TypeRestore Type = 0x08
	// TypeError (server→client) answers the oldest unacknowledged frame
	// in place of an ACK. Payload: WireError.
	TypeError Type = 0x09
	// TypeGoodbye closes the header slot's session (ack payload:
	// CloseResponse JSON), or with slot 0 ends the connection (empty
	// ack, then the server closes).
	TypeGoodbye Type = 0x0A
	// TypeDrain (server→client, unsolicited, slot 0, empty payload)
	// announces a draining server: in-flight frames will still be
	// acknowledged, new OPENs will be refused; finish up and say
	// goodbye.
	TypeDrain Type = 0x0B
	// TypeResult fetches the slot's session outcome, closing the partial
	// sampling interval first unless FlagNoFinish. Ack payload: Result
	// JSON (the exact HTTP v1 document, so figures are bit-identical).
	TypeResult Type = 0x0C
)

// Frame flag bits.
const (
	// FlagSeq marks a STEP/STEP_IDLE whose header seq is a write-ahead
	// idempotency number (the ?seq= machinery).
	FlagSeq uint8 = 1 << 0
	// FlagAttach marks an OPEN whose payload is an existing session id.
	FlagAttach uint8 = 1 << 1
	// FlagStream marks an OPEN or RESTORE requesting SAMPLE frames for
	// the slot it binds.
	FlagStream uint8 = 1 << 2
	// FlagDuplicate marks a STEP ack for a batch that was already
	// applied: nothing re-stepped, the ack is idempotent.
	FlagDuplicate uint8 = 1 << 3
	// FlagNoFinish marks a RESULT that must not close the partial
	// sampling interval (the HTTP ?finish=0).
	FlagNoFinish uint8 = 1 << 4
	// FlagDownload marks a CHECKPOINT whose ack payload is the raw
	// envelope instead of CheckpointInfo (the HTTP ?download=1).
	FlagDownload uint8 = 1 << 5
	// FlagMultiSample marks a SAMPLE from a multi-bus session: the
	// payload is an int32 LE bus index followed by the standard Sample
	// layout (see Sample.walk). Scalar sessions never set it, so
	// existing clients keep decoding plain Sample payloads.
	FlagMultiSample uint8 = 1 << 6
	// FlagAdaptiveSample marks a SAMPLE from an adaptive session: the
	// standard Sample layout followed by a switched byte, the active
	// encoder's name length, and the name bytes (see Sample.walk).
	// Static sessions never set it.
	FlagAdaptiveSample uint8 = 1 << 7
)

// Typed frame-codec errors. Readers must get exactly these (wrapped) for
// damaged input — never a panic, never a raw slice fault.
var (
	// ErrBadMagic marks a header that does not start with "NBWP".
	ErrBadMagic = errors.New("nbwp: bad frame magic")
	// ErrBadVersion marks a header with an unsupported protocol version.
	ErrBadVersion = errors.New("nbwp: unsupported protocol version")
	// ErrBadHeaderCRC marks a header whose CRC byte does not match.
	ErrBadHeaderCRC = errors.New("nbwp: header CRC mismatch")
	// ErrFrameTooLarge marks a frame whose payload length exceeds the
	// reader's bound.
	ErrFrameTooLarge = errors.New("nbwp: frame exceeds payload bound")
	// ErrTruncated marks a frame cut short of its declared length.
	ErrTruncated = errors.New("nbwp: truncated frame")
	// ErrBadPayload marks a payload whose layout does not match its type.
	ErrBadPayload = errors.New("nbwp: malformed payload")
)

// Header is the decoded fixed frame header.
type Header struct {
	// Type identifies the frame.
	Type Type
	// Flags carries the Flag* bits.
	Flags uint8
	// Slot is the session slot (1-255), or 0 for connection scope.
	Slot uint8
	// Seq is the frame sequence field: the write-ahead number under
	// FlagSeq, echoed back on the matching ACK/ERROR.
	Seq uint32
	// Len is the payload length in bytes (at most MaxPayload).
	Len uint32
}
