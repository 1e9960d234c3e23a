package nbwp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The 16-byte header is coded by hand, like the STEP words (words.go):
// it is the per-frame hot path. Every payload layout is a walk on the
// shared codec instead (payload.go, internal/wire).

// PutHeader encodes h into buf. Len must be at most MaxPayload.
func PutHeader(buf *[HeaderLen]byte, h Header) error {
	if h.Len > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, h.Len)
	}
	copy(buf[:4], Magic)
	buf[4] = Version
	buf[5] = byte(h.Type)
	buf[6] = h.Flags
	buf[7] = h.Slot
	binary.LittleEndian.PutUint32(buf[8:12], h.Seq)
	buf[12] = byte(h.Len)
	buf[13] = byte(h.Len >> 8)
	buf[14] = byte(h.Len >> 16)
	buf[15] = byte(crc32.ChecksumIEEE(buf[:15]))
	return nil
}

// ParseHeader decodes and validates a fixed frame header into h.
//
//nanolint:hotpath one ParseHeader per frame on the STEP path; must not allocate
func ParseHeader(buf *[HeaderLen]byte, h *Header) error {
	if string(buf[:4]) != Magic {
		return ErrBadMagic
	}
	if byte(crc32.ChecksumIEEE(buf[:15])) != buf[15] {
		return ErrBadHeaderCRC
	}
	if buf[4] != Version {
		return fmt.Errorf("%w: %d (want %d)", ErrBadVersion, buf[4], Version)
	}
	h.Type = Type(buf[5])
	h.Flags = buf[6]
	h.Slot = buf[7]
	h.Seq = binary.LittleEndian.Uint32(buf[8:12])
	h.Len = uint32(buf[12]) | uint32(buf[13])<<8 | uint32(buf[14])<<16
	return nil
}

// FrameReader reads frames from an underlying stream, owning the header
// scratch and a payload buffer that grows to the connection's high-water
// frame size — steady-state reads allocate nothing. Create one per
// connection; it is not safe for concurrent use.
type FrameReader struct {
	// R is the underlying stream (wrap it in a bufio.Reader).
	R io.Reader
	// Max bounds the declared payload length before any payload byte is
	// read, so a hostile peer cannot force a MaxPayload allocation;
	// frames beyond it get ErrFrameTooLarge. Negative means MaxPayload.
	Max int

	hdr [HeaderLen]byte
	buf []byte
}

// ReadFrame reads one frame: the header into h, the payload into the
// reader's reused buffer. The returned slice is valid until the next
// call. Damaged input yields the package's typed errors — never a panic;
// a clean EOF before any header byte is io.EOF.
//
//nanolint:hotpath one ReadFrame per STEP frame; zero allocs once buf has grown
func (fr *FrameReader) ReadFrame(h *Header) ([]byte, error) {
	if _, err := io.ReadFull(fr.R, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: header", ErrTruncated)
		}
		return nil, err
	}
	var parsed Header
	if err := ParseHeader(&fr.hdr, &parsed); err != nil {
		return nil, err
	}
	limit := fr.Max
	if limit < 0 {
		limit = MaxPayload
	}
	if parsed.Len > uint32(limit) {
		return nil, fmt.Errorf("%w: %d bytes (bound %d)", ErrFrameTooLarge, parsed.Len, limit)
	}
	n := int(parsed.Len)
	if cap(fr.buf) < n {
		//nanolint:ignore hotalloc one-time growth to the connection's high-water payload size; steady state reuses buf
		fr.buf = make([]byte, n)
	}
	buf := fr.buf[:n]
	if n > 0 {
		if _, err := io.ReadFull(fr.R, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("%w: payload (want %d bytes)", ErrTruncated, n)
			}
			return nil, err
		}
	}
	*h = parsed
	return buf, nil
}

// FrameWriter writes frames to an underlying stream, owning the header
// scratch so the hot path allocates nothing. Create one per connection;
// callers serialize access (it is not safe for concurrent use).
type FrameWriter struct {
	// W is the underlying stream (wrap it in a bufio.Writer and flush
	// once per pipelined burst).
	W io.Writer

	hdr [HeaderLen]byte
}

// WriteFrame writes one frame — header then payload. h.Len is derived
// from the payload; the field's value on entry is ignored.
//
//nanolint:hotpath one WriteFrame per STEP/ACK; must not allocate
func (fw *FrameWriter) WriteFrame(h Header, payload []byte) error {
	h.Len = uint32(len(payload))
	if err := PutHeader(&fw.hdr, h); err != nil {
		return err
	}
	if _, err := fw.W.Write(fw.hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := fw.W.Write(payload); err != nil {
			return err
		}
	}
	return nil
}
