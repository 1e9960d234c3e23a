package nbwp

import (
	"encoding/binary"
	"unsafe"
)

// hostLittleEndian reports whether the host's native byte order matches
// the wire format (little-endian), decided once at init.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Words views or decodes the little-endian uint32 words of a STEP
// payload (len(src) must be a multiple of 4; trailing bytes are the
// caller's validation error). On little-endian hosts with an aligned
// buffer the returned slice aliases src — a zero-copy reinterpretation,
// the same discipline as the HTTP binary ingest path; callers must be
// done with the words before reusing src. Elsewhere it decodes into dst
// and returns dst[:len(src)/4].
//
//nanolint:hotpath zero-copy STEP decode; the view must not allocate
func Words(dst []uint32, src []byte) []uint32 {
	n := len(src) / 4
	if n == 0 {
		return dst[:0]
	}
	p := unsafe.SliceData(src)
	if hostLittleEndian && uintptr(unsafe.Pointer(p))%unsafe.Alignof(uint32(0)) == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(p)), n)
	}
	for i := 0; i < n; i++ {
		dst[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
	return dst[:n]
}

// AppendWords appends the wire encoding of words (little-endian uint32)
// to dst — the client-side inverse of Words.
//
//nanolint:hotpath one encode per STEP frame; appends into the caller's reused buffer
func AppendWords(dst []byte, words []uint32) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return dst
}
