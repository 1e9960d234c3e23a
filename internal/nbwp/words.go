package nbwp

import (
	"encoding/binary"
	"slices"
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
// to dst — the client-side inverse of Words. It grows dst once. On
// little-endian hosts, when the appended bytes start word-aligned, they
// are viewed as uint32s and the words copied in one move; elsewhere each
// word is stored in turn.
//
//nanolint:hotpath one encode per STEP frame; appends into the caller's reused buffer
func AppendWords(dst []byte, words []uint32) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 4*len(words))[:n+4*len(words)]
	out := dst[n:]
	p := unsafe.SliceData(out)
	if hostLittleEndian && uintptr(unsafe.Pointer(p))%unsafe.Alignof(uint32(0)) == 0 {
		copy(unsafe.Slice((*uint32)(unsafe.Pointer(p)), len(words)), words)
		return dst
	}
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return dst
}
