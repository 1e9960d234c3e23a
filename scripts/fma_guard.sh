#!/bin/sh
# Fused multiply-add guard for the energy kernels. A window's energy is
# computed from exact integer counts in energy.(*pairCounts).energy, whose
# products are rounded explicitly so that the result is the same float on
# every architecture; the scalar and multi-bus accumulators only count
# and add. arm64 is the first target whose compiler fuses x*y + z into
# one instruction when allowed; this cross-compiles internal/energy for
# it with -gcflags=-S and fails if (*pairCounts).energy or any method of
# *Accumulator or *MultiAccumulator contains a fused multiply-add or
# multiply-sub.
# Usage: scripts/fma_guard.sh  (from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."

pkg='nanobus/internal/energy.'
asm=$(GOARCH=arm64 go build -gcflags=-S ./internal/energy 2>&1)
# Function bodies are the tab-indented lines after a "<symbol> STEXT"
# header; keep the guarded ones, each instruction prefixed by its symbol.
body=$(printf '%s\n' "$asm" | awk -v pkg="$pkg" '
    /^[^\t]/ {
        fn = ""
        if ($2 == "STEXT" && index($1, pkg) == 1) {
            s = substr($1, length(pkg) + 1)
            if (s == "(*pairCounts).energy" || s ~ /^\(\*(Multi)?Accumulator\)\./) fn = s
        }
        next
    }
    fn != "" { print fn ":" $0 }')
if ! printf '%s\n' "$body" | grep -q '^(\*pairCounts)\.energy:'; then
    echo "fma guard: (*pairCounts).energy not found in the arm64 assembly" >&2
    exit 1
fi
if ! printf '%s\n' "$body" | grep -q '^(\*MultiAccumulator)\.'; then
    echo "fma guard: no (*MultiAccumulator) method found in the arm64 assembly" >&2
    exit 1
fi
if printf '%s\n' "$body" | grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]'; then
    echo "fma guard: fused multiply-add in a guarded energy function on arm64" >&2
    exit 1
fi
echo "fma guard: (*pairCounts).energy and the *Accumulator and *MultiAccumulator methods have no fused multiply-add on arm64"
