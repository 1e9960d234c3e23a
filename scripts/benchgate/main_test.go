package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baselineJSON has two StepBatch sub-rows at GOMAXPROCS 2, one
// Transition row at GOMAXPROCS 4 only, and a committed K16vsK1 record
// whose speedup the multi gate must not read.
const baselineJSON = `{"benchmarks": [
  {"name": "BenchmarkStepBatch/batch", "gomaxprocs": 2, "ns_per_op": 10},
  {"name": "BenchmarkStepBatch/random", "gomaxprocs": 2, "ns_per_op": 40},
  {"name": "BenchmarkTransition/direct", "gomaxprocs": 4, "ns_per_op": 150},
  {"name": "BenchmarkMultiStep/K16vsK1", "gomaxprocs": 2, "ns_per_op": 190, "speedup_x": 2.3}
], "cpu": "test"}`

// gate runs benchgate on stdin against baselineJSON and returns its exit
// status.
func gate(t *testing.T, stdin string, args ...string) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return run(append([]string{"-baseline", path}, args...), strings.NewReader(stdin))
}

func TestNsPerOpGate(t *testing.T) {
	for _, tc := range []struct {
		name, stdin string
		want        int
	}{
		{"within bounds", "BenchmarkStepBatch/batch-2 100 12 ns/op\nBenchmarkStepBatch/random-2 100 50 ns/op\n", 0},
		{"regressed", "BenchmarkStepBatch/batch-2 100 25 ns/op\nBenchmarkStepBatch/random-2 100 50 ns/op\n", 1},
		{"min of counts", "BenchmarkStepBatch/batch-2 100 25 ns/op\nBenchmarkStepBatch/batch-2 100 11 ns/op\nBenchmarkStepBatch/random-2 100 50 ns/op\n", 0},
		// The family ran at GOMAXPROCS 2 without its random sub-row.
		{"missing sub-row", "BenchmarkStepBatch/batch-2 100 12 ns/op\n", 1},
		// Transition's committed row is at GOMAXPROCS 4: a run at 2 does
		// not owe it, and its own row has no baseline.
		{"other procs", "BenchmarkStepBatch/batch-2 100 12 ns/op\nBenchmarkStepBatch/random-2 100 50 ns/op\nBenchmarkTransition/direct-2 100 500 ns/op\n", 0},
		{"no bench lines", "PASS\n", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code := gate(t, tc.stdin); code != tc.want {
				t.Fatalf("exit %d, want %d", code, tc.want)
			}
		})
	}
}

func TestMultiGateJudgesMeasurement(t *testing.T) {
	line := func(x string) string {
		return "BenchmarkMultiStep/K16vsK1-2 100000 151.7 ns/op 8.736 ns_word_bus " + x + " speedup_x 0 B/op 0 allocs/op\n"
	}
	for _, tc := range []struct {
		name, stdin string
		args        []string
		want        int
	}{
		{"healthy", line("1.02") + line("0.97") + line("1.05"), nil, 0},
		// A K = 16 kernel that fell behind the scalar one fails, though
		// the committed record says 2.3x.
		{"regressed", line("0.82") + line("0.85") + line("0.79"), nil, 1},
		// One run inflated by a stalled scalar chunk does not pass it.
		{"median not best", line("0.82") + line("6.29") + line("0.8"), nil, 1},
		{"median of even count", line("0.85") + line("0.99") + line("0.97") + line("0.7"), nil, 0},
		{"raised floor", line("1.41"), []string{"-multi-min", "2"}, 1},
		{"no measurement", "BenchmarkMultiStep/K16-2 100000 117.8 ns/op 7.364 ns_word_bus\n", nil, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code := gate(t, tc.stdin, append([]string{"-multi-gate"}, tc.args...)...); code != tc.want {
				t.Fatalf("exit %d, want %d", code, tc.want)
			}
		})
	}
}
