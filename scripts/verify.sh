#!/bin/sh
# Full local/CI gate: build, vet, nanolint, race-enabled tests (which
# include the AllocsPerRun zero-alloc gates in core, cpu, energy, nbwp
# and server), the ratcheted coverage minimum, a benchmark smoke gated against
# the recorded baseline (benchgate fails the run when any kernel is more
# than 2x slower than BENCH_hotpath.json), the nanobusd end-to-end smoke,
# the adaptive cooling-code gate, and the kill -9 durability chaos gate.
# It also checks the arm64 build of the energy kernel for fused
# multiply-adds (scripts/fma_guard.sh), that the energy kernel's hold
# test sits inside one 32-byte window (scripts/layout_guard.sh), that
# internal/ode stays a test-only package (scripts/ode_guard.sh), that
# the perfbench module still builds and passes its self-test against
# this checkout, that no function is left unlinked outside the allowlist
# (scripts/linkcheck), and that the sub-second results/ rows regenerate
# byte for byte (scripts/results_check).
#
# CI-safe by construction: no interactive input, no TTY assumptions, and
# every stage's exit status stops the run. Benchmark output goes through
# a temp file instead of a pipeline because POSIX sh `set -e` does not
# propagate the left side of a pipe — `go test | benchgate` would report
# only benchgate's status and silently swallow a test failure.
# Usage: scripts/verify.sh  (from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

echo "==> build"
go build ./...
echo "==> vet"
go vet ./...
echo "==> perfbench module"
# perfbench is its own Go module (it replaces nanobus with this
# checkout), so ./... above skips it: a change to an internal API it
# imports would pass every other stage and break the benchmark build.
(cd perfbench && go vet . && go test .)
echo "==> ode guard"
# RK4 and the other internal/ode integrators are test-only oracles: no
# non-test package may import them (see the script).
sh scripts/ode_guard.sh
echo "==> fma guard"
# The scalar energy kernel's count-to-energy sum must not be fused into
# multiply-adds on arm64 (see the script).
sh scripts/fma_guard.sh
echo "==> layout guard"
# The energy kernel's hold-test loop must sit inside one 32-byte window
# of its function, or soc_lockstep loses 10-15% (see the script).
sh scripts/layout_guard.sh
echo "==> linkcheck"
# Every function some program links, or scripts/linkcheck/allowlist.txt
# names it with a reason; a row that is linked now or names no function
# fails too (see the script).
go run ./scripts/linkcheck
echo "==> results check"
# The sub-second rows of results/MANIFEST must regenerate byte for byte;
# the nightly workflow runs every row.
go run ./scripts/results_check table1.txt sec33.txt dtheta.txt l2bus.txt \
    baselines.txt delaytemp.txt reliability.txt repsweep.txt \
    encstats_da.txt encstats_ia.txt
echo "==> nanolint"
# Any unsuppressed finding fails the run: a finding is accepted only by a
# //nanolint:ignore <rule> <reason> directive in the source. The SARIF
# log is CI's code-scanning upload; locally it lands in the temp dir and
# is discarded.
go run ./cmd/nanolint -sarif "$tmp/nanolint.sarif" ./...
echo "==> race tests"
go test -race ./...

echo "==> coverage gate"
go test -count=1 -coverprofile "$tmp/coverage.out" ./...
go run ./scripts/covergate -profile "$tmp/coverage.out" -min 82.1

echo "==> benchmark gates"
# Each leg runs its benchmarks in three separate -count 1 passes appended
# to one file, and benchgate keeps each benchmark's fastest run: the
# repeats of one benchmark are spread over the leg, so one slow stretch
# of a shared host cannot spoil all three.
# Fast kernels: 100 iterations, min of 3 runs to damp scheduler noise.
for pass in 1 2 3; do
    go test -run NONE \
        -bench 'BenchmarkThermalAdvance|BenchmarkBinaryIngest|BenchmarkStreamSampleEncode|BenchmarkPayloadCodec' \
        -benchmem -benchtime 100x -count 1 . ./internal/server ./internal/nbwp
done > "$tmp/bench_fast.txt"
go run ./scripts/benchgate -baseline BENCH_hotpath.json < "$tmp/bench_fast.txt"
# Memo-warmed kernels need enough iterations to reach their steady-state
# hit rate (the baseline regime); 100x would gate against a cold cache.
for pass in 1 2 3; do
    go test -run NONE \
        -bench 'BenchmarkTransition|BenchmarkRunPair|BenchmarkStepBatch|BenchmarkMultiStep|BenchmarkCoolingStep|BenchmarkEncoders|BenchmarkEncodeBatch' \
        -benchmem -benchtime 100000x -count 1 .
done > "$tmp/bench_warm.txt"
go run ./scripts/benchgate -baseline BENCH_hotpath.json < "$tmp/bench_warm.txt"
# Whole-sweep benchmarks run ~0.1-0.2 s/op, so one iteration is already
# stable within the 2x limit.
go test -run NONE -bench 'BenchmarkSweepWorkers' -benchmem -benchtime 1x . > "$tmp/bench_sweep.txt"
go run ./scripts/benchgate -baseline BENCH_hotpath.json < "$tmp/bench_sweep.txt"
# Trace capture: each run warms its source past the benchmark's warm-up
# skip outside the timer, then times 10^6 steady-state cycles.
for pass in 1 2 3; do
    go test -run NONE -bench 'BenchmarkCapture' -benchmem -benchtime 1000000x -count 1 .
done > "$tmp/bench_capture.txt"
go run ./scripts/benchgate -baseline BENCH_hotpath.json < "$tmp/bench_capture.txt"
# Per-bus scaling gate: ten fresh paired K16-vs-K1 runs of 10^6 rows
# (shorter runs read high), whose median must show the batch kernel
# within 10% of the scalar kernel's cost per bus (>= 0.9x; the floor and
# the run length are argued in EXPERIMENTS.md, "One stepping loop").
go test -run NONE -bench 'BenchmarkMultiStep/K16vsK1' -benchtime 1000000x -count 10 . > "$tmp/bench_multi.txt"
go run ./scripts/benchgate -multi-gate < "$tmp/bench_multi.txt"

echo "==> nanobusd smoke"
# End-to-end: exec the real daemon on an ephemeral port, drive one
# session through the client, require bit-identical results vs the
# in-process library, then SIGTERM and require a clean drain.
go build -o "$tmp/nanobusd" ./cmd/nanobusd
go run ./scripts/nanobusd_smoke -bin "$tmp/nanobusd"

echo "==> adaptive gate"
# Cooling-code controller: the self-calibrated ceiling must be defended
# on every sample (while static BI exceeds it) at <= 15% bandwidth
# overhead, and the switch schedule must reproduce bit-identically across
# re-runs and across HTTP and NBWP against the exec'd daemon.
go run ./scripts/adaptive_gate -bin "$tmp/nanobusd"

echo "==> durability chaos"
# kill -9 mid-stream, restart on the shared checkpoint directory with an
# ingest failpoint armed, resurrect, replay, and require bit-identical
# final figures vs an uninterrupted library run.
go run ./scripts/chaos -bin "$tmp/nanobusd"

echo "verify: PASS"
