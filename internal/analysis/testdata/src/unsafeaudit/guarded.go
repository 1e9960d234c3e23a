// guarded.go is allowlisted in unsafeAllowlist, so the unsafe import is
// accepted — but every unsafe.Slice view must follow the words.go
// pattern: alignment check on the if, loop fallback in the function.
package unsafeaudit

import "unsafe"

// Guarded is the audited pattern from internal/nbwp/words.go: check
// alignment, take the zero-copy view, otherwise fall back to a copy loop.
func Guarded(b []byte) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(uint32(0)) == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
	}
	return out
}

// Unguarded takes the view with no alignment check at all.
func Unguarded(b []byte) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4) // want unsafeaudit
}

// NoFallback checks alignment but offers no copy loop for the misaligned
// case, so misaligned input has no correct path.
func NoFallback(b []byte) []uint32 {
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(uint32(0)) == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4) // want unsafeaudit
	}
	return nil
}
