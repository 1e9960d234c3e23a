// Command benchgate compares `go test -bench` output (read from stdin)
// against the recorded baseline in BENCH_hotpath.json and exits non-zero
// when any benchmark has regressed beyond the allowed ratio.
//
//	go test -run NONE -bench X -benchmem -benchtime 100x -count 3 . |
//	    go run ./scripts/benchgate -baseline BENCH_hotpath.json
//
// Multiple runs of the same benchmark (from -count N) are folded by
// taking the minimum ns/op — the least-noisy estimate on a shared
// machine. Benchmarks absent from the baseline are reported and skipped,
// so adding a benchmark never breaks the gate before the baseline is
// regenerated (scripts/bench.sh). The reverse fails the gate: when a run
// reports a benchmark family (the name before the first '/') at some
// GOMAXPROCS, every committed row of that family at that GOMAXPROCS must
// be among the results, so a deleted or renamed sub-benchmark cannot
// drop out of the gate unnoticed.
//
// With -cluster-gate the tool instead judges the baseline's recorded
// cluster_gate block (written by scripts/bench_server.sh): aggregate
// 3-node words/s must be at least -cluster-min times the single-node
// rate. The scaling target only means something when the machine can
// actually run the fleet in parallel, so on boxes with fewer than 4
// cores the gate degrades to a sanity floor — clustering on a
// timeshared core must not collapse aggregate throughput below half the
// single-node rate. No stdin is read in this mode.
//
// With -multi-gate the tool judges the per-bus scaling of a fresh run
// instead: stdin must carry BenchmarkMultiStep/K16vsK1 lines, whose
// speedup_x metric is the paired, drift-immune ratio of the scalar
// kernel's ns/word to the K=16 batch kernel's ns/word/bus, and their
// median must reach -multi-min. The median, not the best, because a
// stall inside one run's scalar chunks inflates its ratio: a single
// lucky run must not pass a regressed kernel. The committed rows are
// records, not the measurement. The default floor and the run length it
// assumes are argued in EXPERIMENTS.md ("One stepping loop").
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

type baselineFile struct {
	Benchmarks  []baselineEntry `json:"benchmarks"`
	CPU         string          `json:"cpu"`
	ClusterGate *clusterGate    `json:"cluster_gate"`
}

type baselineEntry struct {
	Name       string  `json:"name"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NsPerOp    float64 `json:"ns_per_op"`
}

// multiGateBench is the benchmark -multi-gate judges.
const multiGateBench = "BenchmarkMultiStep/K16vsK1"

// clusterGate is the 3-node throughput record scripts/bench_server.sh
// writes into BENCH_server.json.
type clusterGate struct {
	Nodes              int     `json:"nodes"`
	SessionsPerNode    int     `json:"sessions_per_node"`
	Cores              int     `json:"cores"`
	ClusterWordsPerSec float64 `json:"cluster_words_per_sec"`
	SingleWordsPerSec  float64 `json:"single_words_per_sec"`
	Ratio              float64 `json:"ratio"`
}

// benchLine matches e.g. "BenchmarkRunPair/optimized-4  1000  43.17 ns/op ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.e+]+) ns/op`)

// speedupMetric matches the K16vsK1 line's "1.402 speedup_x" metric.
var speedupMetric = regexp.MustCompile(`\s([0-9.e+]+) speedup_x\b`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin))
}

// family returns a benchmark's top-level name: the part before the
// first '/'.
func family(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

func run(args []string, stdin io.Reader) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_hotpath.json", "baseline JSON written by scripts/bench.sh")
	maxRatio := fs.Float64("max-ratio", 2.0, "fail when measured ns/op exceeds baseline by this factor")
	cluster := fs.Bool("cluster-gate", false, "judge the baseline's cluster_gate block instead of stdin bench lines")
	clusterMin := fs.Float64("cluster-min", 2.5, "with -cluster-gate: minimum aggregate/single words-per-sec ratio on machines with >= 4 cores")
	multi := fs.Bool("multi-gate", false, "judge the "+multiGateBench+" speedup_x of the bench lines on stdin instead of ns/op")
	multiMin := fs.Float64("multi-min", 0.9, "with -multi-gate: minimum median paired K16-vs-K1 per-bus speedup")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *multi {
		return multiGateMain(stdin, *multiMin)
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parse %s: %v\n", *baselinePath, err)
		return 2
	}
	if *cluster {
		return clusterGateMain(base.ClusterGate, *clusterMin)
	}
	// Baseline lookup is (name, gomaxprocs): the same kernel legitimately
	// differs across parallelism levels, so entries never cross-match.
	baseline := make(map[string]map[int]float64)
	for _, e := range base.Benchmarks {
		if baseline[e.Name] == nil {
			baseline[e.Name] = make(map[int]float64)
		}
		baseline[e.Name][e.GoMaxProcs] = e.NsPerOp
	}

	// Fold stdin's bench lines to min ns/op per (name, gomaxprocs).
	type key struct {
		name  string
		procs int
	}
	measured := make(map[key]float64)
	var order []key
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw output through for the log
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs := runtime.GOMAXPROCS(0)
		if m[2] != "" {
			if p, err := strconv.Atoi(m[2]); err == nil {
				procs = p
			}
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		k := key{m[1], procs}
		if old, ok := measured[k]; !ok {
			measured[k] = ns
			order = append(order, k)
		} else if ns < old {
			measured[k] = ns
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: read stdin: %v\n", err)
		return 2
	}
	if len(measured) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines on stdin")
		return 2
	}

	failed, gated := 0, 0
	for _, k := range order {
		ns := measured[k]
		want, ok := baseline[k.name][k.procs]
		if !ok || want <= 0 {
			fmt.Printf("benchgate: SKIP %s (gomaxprocs %d): no baseline entry\n", k.name, k.procs)
			continue
		}
		gated++
		ratio := ns / want
		status := "ok"
		if ratio > *maxRatio {
			status = "FAIL"
			failed++
		}
		fmt.Printf("benchgate: %-4s %s (gomaxprocs %d): %.4g ns/op vs baseline %.4g (%.2fx, limit %.2fx)\n",
			status, k.name, k.procs, ns, want, ratio, *maxRatio)
	}
	// Every committed row of a family the run reported, at the
	// GOMAXPROCS it ran under, must have been measured.
	ran := make(map[key]bool)
	for _, k := range order {
		ran[key{family(k.name), k.procs}] = true
	}
	missing := 0
	for _, e := range base.Benchmarks {
		k := key{e.Name, e.GoMaxProcs}
		if _, ok := measured[k]; !ok && ran[key{family(e.Name), e.GoMaxProcs}] {
			missing++
			fmt.Printf("benchgate: FAIL %s (gomaxprocs %d): committed baseline row not reported by the run of its family\n", e.Name, e.GoMaxProcs)
		}
	}
	if failed > 0 || missing > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) regressed beyond %.2fx, %d baseline row(s) missing\n", failed, *maxRatio, missing)
		return 1
	}
	fmt.Printf("benchgate: all %d gated benchmark(s) within %.2fx of baseline\n", gated, *maxRatio)
	return 0
}

// clusterGateMain judges the recorded 3-node scaling ratio. The full
// target applies only when the recording machine could host the fleet in
// parallel (>= 4 cores: three nodes plus the drivers); below that the
// nodes timeshare one core and the only meaningful check is that
// clustering does not collapse throughput.
func clusterGateMain(g *clusterGate, minRatio float64) int {
	if g == nil {
		fmt.Fprintln(os.Stderr, "benchgate: baseline has no cluster_gate block (rerun scripts/bench_server.sh)")
		return 2
	}
	required := minRatio
	mode := "scaling"
	if g.Cores < 4 {
		required = 0.5
		mode = fmt.Sprintf("timeshared (%d cores)", g.Cores)
	}
	fmt.Printf("benchgate: cluster_gate [%s]: %d nodes x %d sessions: %.0f words/s aggregate vs %.0f single (%.2fx, need >= %.2fx)\n",
		mode, g.Nodes, g.SessionsPerNode, g.ClusterWordsPerSec, g.SingleWordsPerSec, g.Ratio, required)
	if g.Ratio < required {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: cluster ratio %.2fx below %.2fx\n", g.Ratio, required)
		return 1
	}
	fmt.Println("benchgate: cluster gate ok")
	return 0
}

// multiGateMain judges the measured K16-vs-K1 per-bus speedup read from
// stdin. The metric is paired inside one timing window, so unlike raw
// ns/op it is immune to CPU frequency drift between runs; the gate
// direction is inverted relative to the ns/op gate — speedup is
// higher-is-better, so the median run must clear the floor.
func multiGateMain(stdin io.Reader, minSpeedup float64) int {
	var runs []float64
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil || m[1] != multiGateBench {
			continue
		}
		sm := speedupMetric.FindStringSubmatch(line)
		if sm == nil {
			continue
		}
		x, err := strconv.ParseFloat(sm[1], 64)
		if err != nil || x <= 0 {
			continue
		}
		fmt.Printf("benchgate: multi_gate: %s: %.3gx per-bus speedup\n", multiGateBench, x)
		runs = append(runs, x)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: read stdin: %v\n", err)
		return 2
	}
	if len(runs) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no %s speedup_x on stdin (run it with go test -bench)\n", multiGateBench)
		return 2
	}
	slices.Sort(runs)
	n := len(runs)
	median := (runs[(n-1)/2] + runs[n/2]) / 2
	if median < minSpeedup {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: median multi-bus speedup %.3gx of %d runs below %.3gx\n", median, n, minSpeedup)
		return 1
	}
	fmt.Printf("benchgate: multi gate ok (median %.3gx of %d runs >= %.3gx)\n", median, n, minSpeedup)
	return 0
}
