#!/bin/sh
# Code-placement guard for the energy kernel's hold test. On a held bus
# (soc_lockstep's), almost every word of energy.(*Accumulator).stepWords
# takes only the loop head: load the word, mask it, compare it with the
# held word, branch back. That 24-byte loop ran 10-15% slower wherever
# it straddled a 64-byte cache line (EXPERIMENTS.md, "One stepping
# loop"). The linker starts functions at 32-byte boundaries, so a loop
# that crosses a 32-byte window relative to the function start straddles
# a 64-byte line under one of the two alignments the function can get.
# This builds the package's test binary, disassembles stepWords, finds
# the backward branch of the hold test (the `if word == prev` line of
# batch.go) and fails if the loop from its target to its end crosses a
# 32-byte window.
# Usage: scripts/layout_guard.sh  (from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

line=$(grep -n 'if word == prev {' internal/energy/batch.go | cut -d: -f1)
if [ "$(printf '%s\n' "$line" | wc -l)" -ne 1 ] || [ -z "$line" ]; then
    echo "layout guard: no single 'if word == prev {' line in internal/energy/batch.go" >&2
    exit 1
fi
go test -c -o "$tmp/energy.test" ./internal/energy
go tool objdump -s 'energy\.\(\*Accumulator\)\.stepWords$' "$tmp/energy.test" > "$tmp/stepWords.s"

# objdump lines: "  batch.go:N  0xADDR  HEXBYTES  MNEMONIC ARGS". The
# function starts at the first address; the hold test's back edge is the
# conditional jump on $line whose target lies below it.
awk -v at="batch.go:$line" '
    function hex(s,    i, n, c) {
        n = 0; s = tolower(substr(s, 3))
        for (i = 1; i <= length(s); i++) {
            c = index("0123456789abcdef", substr(s, i, 1)) - 1
            n = n * 16 + c
        }
        return n
    }
    $2 ~ /^0x/ {
        addr = hex($2)
        if (start == "") start = addr
        if ($1 == at && $4 ~ /^J/ && $4 != "JMP" && $5 ~ /^0x/ && hex($5) < addr) {
            head = hex($5) - start
            end = addr + length($3) / 2 - start
            found++
        }
    }
    END {
        if (found != 1) {
            printf "layout guard: found %d backward branches on %s in stepWords, want 1\n", found, at > "/dev/stderr"
            exit 1
        }
        printf "layout guard: hold-test loop at function offsets %d..%d (%d bytes)\n", head, end, end - head
        if (int(head / 32) != int((end - 1) / 32)) {
            printf "layout guard: the loop crosses a 32-byte window (offset %d mod 32 = %d); it straddles a 64-byte line under one of the two function alignments\n", head, head % 32 > "/dev/stderr"
            exit 1
        }
        printf "layout guard: it sits inside one 32-byte window (offset %d mod 32)\n", head % 32
    }' "$tmp/stepWords.s"
