#!/bin/sh
# Hot-path benchmark runner: runs the perf-critical benches with -benchmem
# at GOMAXPROCS 1, 2 and 4 and records the parsed results (tagged with the
# GOMAXPROCS they ran under) in BENCH_hotpath.json at the repo root.
# Repeated runs of a benchmark (-count N) fold to the one with the least
# ns/op, as scripts/benchgate folds them when it judges a run.
# Usage: scripts/bench.sh [extra go-test args, e.g. -count 3]
set -eu
cd "$(dirname "$0")/.."

OUT=BENCH_hotpath.json
PATTERN='BenchmarkTransition|BenchmarkThermalAdvance|BenchmarkRunPair|BenchmarkStepBatch|BenchmarkMultiStep|BenchmarkSweepWorkers|BenchmarkBinaryIngest|BenchmarkStreamSampleEncode|BenchmarkCoolingStep|BenchmarkEncoders|BenchmarkCapture'
RAW=$(mktemp)
ENTRIES=$(mktemp)
trap 'rm -f "$RAW" "$ENTRIES"' EXIT

: > "$ENTRIES"
CPU=""
for G in 1 2 4; do
    GOMAXPROCS=$G go test -run NONE -bench "$PATTERN" -benchmem "$@" \
        . ./internal/server | tee "$RAW"

    # Parse `go test -bench` lines into JSON entries:
    #   BenchmarkX/sub-N   iters   T ns/op [extra metrics...]  B B/op  A allocs/op
    awk '
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        iters = $2
        ns = ""; bpo = ""; apo = ""; extras = ""
        for (i = 3; i < NF; i++) {
            if ($(i+1) == "ns/op")     ns  = $i
            if ($(i+1) == "B/op")      bpo = $i
            if ($(i+1) == "allocs/op") apo = $i
            # custom b.ReportMetric units (e.g. hit_pct, MB/s)
            if ($(i+1) ~ /^[a-zA-Z_\/]+$/ && $(i+1) !~ /^(ns|B|allocs)\/op$/) {
            if (extras != "") extras = extras ", "
            u = $(i+1); gsub(/\//, "_per_", u)
            extras = sprintf("%s\"%s\": %s", extras, u, $i)
            }
        }
        e = sprintf("    {\"name\": \"%s\", \"gomaxprocs\": %s, \"iterations\": %s, \"ns_per_op\": %s", name, g, iters, ns)
        if (bpo != "") e = e sprintf(", \"bytes_per_op\": %s", bpo)
        if (apo != "") e = e sprintf(", \"allocs_per_op\": %s", apo)
        if (extras != "") e = e sprintf(", %s", extras)
        if (!(name in best)) { order[++n] = name }
        else if (ns + 0 >= best[name] + 0) { next }
        best[name] = ns; entry[name] = e
    }
    END { for (k = 1; k <= n; k++) printf "%s},\n", entry[order[k]] }' g="$G" "$RAW" >> "$ENTRIES"

    if [ -z "$CPU" ]; then
        CPU=$(awk '/^cpu:/ { s = substr($0, 6); gsub(/^[ \t]+|[ \t]+$/, "", s); print s; exit }' "$RAW")
    fi
done

{
    printf '{\n  "benchmarks": [\n'
    # strip the trailing comma off the last entry
    sed '$ s/},$/}/' "$ENTRIES"
    printf '  ],\n  "cpu": "%s"\n}\n' "$CPU"
} > "$OUT"

echo "wrote $OUT"
