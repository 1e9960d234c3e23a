#!/bin/sh
# Fused multiply-add guard for the scalar energy kernel. The window's
# energy is computed from exact integer counts in
# energy.(*pairCounts).energy, whose products are rounded explicitly so
# that the result is the same float on every architecture. arm64 is the
# first target whose compiler fuses x*y + z into one instruction when
# allowed; this cross-compiles internal/energy for it with -gcflags=-S and
# fails if that function contains a fused multiply-add or multiply-sub.
# Usage: scripts/fma_guard.sh  (from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."

fn='nanobus/internal/energy.(*pairCounts).energy STEXT'
asm=$(GOARCH=arm64 go build -gcflags=-S ./internal/energy 2>&1)
body=$(printf '%s\n' "$asm" | awk -v fn="$fn" 'index($0, fn) == 1 { p = 1; print; next } p && /^[^\t]/ { p = 0 } p')
if [ -z "$body" ]; then
    echo "fma guard: ${fn% STEXT} not found in the arm64 assembly" >&2
    exit 1
fi
if printf '%s\n' "$body" | grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]'; then
    echo "fma guard: fused multiply-add in ${fn% STEXT} on arm64" >&2
    exit 1
fi
echo "fma guard: ${fn% STEXT} has no fused multiply-add on arm64"
