// Command perfbench is the repository benchmark. It drives the simulator
// from outside, through the public functions of internal/workload,
// internal/core, internal/encoding, internal/energy, internal/thermal,
// internal/server and client, on three workloads:
//
//   - fig3: the paper's Fig. 3 study replayed on the library batch path;
//   - nbwp_stream: scalar BI sessions streamed over one NBWP connection to
//     an in-process daemon;
//   - soc_lockstep: the four SoC buses stepped in lockstep by core.MultiSim.
//
// Every run checks its outputs after the timed phase and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. The line before it is a report with the
// host block, the exact work counts, the checks and (with -trace 1) the
// per-layer reconciliation. Run it through run.py, which builds it:
//
//	python3 perfbench/run.py --workload fig3 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	seed uint64
	// seconds is the measured-phase budget; the phase ends at the first
	// pass boundary past it.
	seconds float64
	// passes, when positive, runs exactly that many measured passes
	// instead of a time budget (the self-test uses it).
	passes int
	trace  bool
}

// done reports whether the measured phase is over after n passes taking
// elapsed seconds. A traced run needs a traced and an untraced pass.
func (o options) done(n int, elapsed float64) bool {
	if o.trace && n < 2 {
		return false
	}
	if o.passes > 0 {
		return n >= o.passes
	}
	return elapsed >= o.seconds
}

// outcome is what one workload run hands back to main.
type outcome struct {
	attempted, failed int
	// failures names each failed operation or check.
	failures []string

	// setupS holds one set-up time per repetition.
	setupS []float64
	// unitS[p][i] is the time of unit i of measured pass p: a replay on
	// fig3, a step on soc_lockstep, a frame's ack interval on
	// nbwp_stream. Every pass runs the same units over passWords words.
	unitS     [][]float64
	passWords uint64
	// stepsMS are the measured step latencies, stepsPerPass to a pass,
	// in the same order every pass.
	stepsMS      []float64
	stepsPerPass int
	// words, elapsedS and passes total the measured phase; tracedPasses
	// of the passes took tracedS seconds, the others untracedS.
	words                uint64
	elapsedS             float64
	passes, tracedPasses int
	tracedS, untracedS   float64

	// counts are exact work counts of the first measured pass; inputs is
	// a digest of the generated inputs. Both repeat exactly for a seed.
	counts map[string]uint64
	inputs string

	// layers are the per-layer metrics (traced runs only), keyed by the
	// names in BENCHMARK.json's per_layer list.
	layers map[string]float64
	// reconcile records, per parent span, its children and residual.
	reconcile []reconciliation
	// notes carry workload-specific facts for the report.
	notes map[string]any
	// procs is the GOMAXPROCS the workload ran with, 0 for the default.
	procs int
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// check records one attempted output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// repeatSetup runs setup reps times, each after a garbage collection so
// earlier allocations do not land in the timing, and returns the last
// state with every set-up time. Each earlier state is released by
// discard, when non-nil, as soon as it has been timed.
func repeatSetup[T any](reps int, setup func() (T, error), discard func(T) error) (T, []float64, error) {
	var st T
	var times []float64
	for i := 0; i < reps; i++ {
		// Release the previous state first, so only one is live at a time.
		var zero T
		st = zero
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, secondsSince(t0))
		if i < reps-1 && discard != nil {
			if err := discard(s); err != nil {
				return st, nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
		st = s
	}
	return st, times, nil
}

// measure runs measured passes until the budget is spent, tracing every
// second pass of a traced run. pass runs pass n over out.passWords words
// and returns its unit times (see outcome.unitS).
func measure(opts options, tr *tracer, out *outcome, pass func(n int) ([]float64, error)) {
	start := time.Now()
	for n := 0; !opts.done(n, secondsSince(start)); n++ {
		traced := opts.trace && n%2 == 1
		tr.setOn(traced)
		t0 := time.Now()
		units, err := pass(n)
		el := secondsSince(t0)
		if err != nil {
			out.fail("pass %d: %v", n, err)
			break
		}
		out.unitS = append(out.unitS, units)
		out.words += out.passWords
		out.passes++
		if traced {
			out.tracedPasses++
			out.tracedS += el
		} else {
			out.untracedS += el
		}
	}
	out.elapsedS = secondsSince(start)
	tr.setOn(opts.trace)
}

// traceOverheadPct compares the mean time of traced and untraced passes,
// which do equal work: the tracing cost in percent.
func (o *outcome) traceOverheadPct() float64 {
	untraced := o.passes - o.tracedPasses
	if untraced == 0 || o.tracedPasses == 0 || o.untracedS <= 0 {
		return 0
	}
	return (o.tracedS/float64(o.tracedPasses)/(o.untracedS/float64(untraced)) - 1) * 100
}

type workloadFunc func(opts options, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fig3":         runFig3,
	"nbwp_stream":  runNBWP,
	"soc_lockstep": runSoC,
}

func main() {
	name := flag.String("workload", "", "workload: fig3, nbwp_stream or soc_lockstep")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured-phase budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for reports and span files")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *traceFlag, *seconds)
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceFlag))
	if err := runAndReport(*name, run, opts, base); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// runAndReport runs one workload, writes its report (and spans) under
// base, and prints the report and then the result line.
func runAndReport(name string, run workloadFunc, opts options, base string) error {
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	out, err := run(opts, tr)
	if err != nil {
		return err
	}
	rssMB := peakRSSMB()
	metrics, err := buildMetrics(out, opts.trace, rssMB)
	if err != nil {
		return err
	}
	rep := report{
		Workload:   name,
		Seed:       opts.seed,
		Trace:      opts.trace,
		Host:       hostInfo(out.procs),
		Rationale:  rationaleFor(name),
		SetupS:     out.setupS,
		Passes:     out.passes,
		Words:      out.words,
		ElapsedS:   out.elapsedS,
		Counts:     out.counts,
		Inputs:     out.inputs,
		Failures:   out.failures,
		Reconcile:  out.reconcile,
		Notes:      out.notes,
		PeakRSSMiB: rssMB,
		PassS:      steadyPassS(out.unitS),
	}
	p, _, n := tailPercentile(out.stepsMS)
	rep.Steps = &stepInfo{Count: n, TailPercentile: p}
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	if tr != nil {
		rep.Spans = base + ".spans.jsonl"
		if err := tr.write(rep.Spans); err != nil {
			return err
		}
	}
	repJSON, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".report.json", repJSON, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", f)
	}
	fmt.Println(string(repJSON))
	fmt.Println(string(line))
	return nil
}

// steadyQ is the quantile over a run's passes that summarises the time
// of each unit or step. The host alternates, for seconds at a time,
// between a contended phase and an idle one that runs up to 1.5x faster.
// The contended phase fills at least a quarter of every run, so the 75th
// percentile reads it every time, where a median flips between the two
// phases with their share of the run (words/s moved 35% between runs).
// It still drops bursts of steal or GC that hit under a quarter of the
// passes.
const steadyQ = 0.75

// steadyTimes returns, for each index i, the steadyQ quantile of
// perPass[p][i] over the passes p.
func steadyTimes(perPass [][]float64) []float64 {
	if len(perPass) == 0 {
		return nil
	}
	out := make([]float64, len(perPass[0]))
	col := make([]float64, len(perPass))
	for i := range out {
		for p := range perPass {
			col[p] = perPass[p][i]
		}
		out[i] = quantile(col, steadyQ)
	}
	return out
}

// steadyPassS is the time of one pass: the sum of its units' steady
// times.
func steadyPassS(unitS [][]float64) float64 {
	var sum float64
	for _, t := range steadyTimes(unitS) {
		sum += t
	}
	return sum
}

// stepsByPass splits the step times of the completed passes by pass.
func (o *outcome) stepsByPass() [][]float64 {
	if o.stepsPerPass == 0 || len(o.stepsMS) < o.passes*o.stepsPerPass {
		return nil
	}
	out := make([][]float64, o.passes)
	for p := range out {
		out[p] = o.stepsMS[p*o.stepsPerPass : (p+1)*o.stepsPerPass]
	}
	return out
}

// metric is one entry of the result line's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildMetrics assembles the end-to-end metrics of an untraced run, or
// every per-layer metric of a traced one, in BENCHMARK.json's units.
func buildMetrics(out *outcome, traced bool, rssMB float64) (map[string]metric, error) {
	m := map[string]metric{}
	if traced {
		for _, d := range perLayer {
			v, ok := out.layers[d.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			m[d.name] = metric{v, d.unit}
		}
		return m, nil
	}
	passS := steadyPassS(out.unitS)
	if len(out.setupS) == 0 || passS <= 0 {
		return nil, fmt.Errorf("no set-up or no complete measured round")
	}
	m["setup_s"] = metric{median(out.setupS), "s"}
	m["words_per_s"] = metric{float64(out.passWords) / passS, "words/s"}
	if len(out.stepsMS) == 0 {
		return nil, fmt.Errorf("no measured steps")
	}
	_, tail, _ := tailPercentile(out.stepsMS)
	m["step_p50_ms"] = metric{median(steadyTimes(out.stepsByPass())), "ms"}
	m["step_tail_ms"] = metric{tail, "ms"}
	m["peak_rss_mb"] = metric{rssMB, "MiB"}
	return m, nil
}

// report is the line printed before the result line, also written to
// the output directory.
type report struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Host       host              `json:"host"`
	Rationale  any               `json:"rationale"`
	SetupS     []float64         `json:"setup_s_reps"`
	Passes     int               `json:"passes"`
	Words      uint64            `json:"words"`
	ElapsedS   float64           `json:"elapsed_s"`
	Steps      *stepInfo         `json:"steps"`
	Counts     map[string]uint64 `json:"counts_first_pass"`
	Inputs     string            `json:"inputs_sha256"`
	Failures   []string          `json:"failures"`
	Reconcile  []reconciliation  `json:"reconcile,omitempty"`
	Notes      map[string]any    `json:"notes,omitempty"`
	PeakRSSMiB float64           `json:"peak_rss_mib"`
	PassS      float64           `json:"steady_pass_s"`
	Spans      string            `json:"spans,omitempty"`
}

type stepInfo struct {
	Count          int     `json:"count"`
	TailPercentile float64 `json:"tail_percentile"`
}

// host is the host block written with every result.
type host struct {
	NProc int `json:"nproc"`
	// CPUsAllowed is how many CPUs the process may run on (fewer than
	// nproc when it is pinned).
	CPUsAllowed int    `json:"cpus_allowed"`
	CPU         string `json:"cpu"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// Timeshared marks GOMAXPROCS above the CPUs the process may use:
	// such figures show time-slicing, not scaling.
	Timeshared bool `json:"timeshared"`
}

// hostInfo describes the host; procs is the GOMAXPROCS the run used, 0
// for the process default.
func hostInfo(procs int) host {
	h := host{
		NProc:       runtime.NumCPU(),
		CPUsAllowed: runtime.NumCPU(),
		CPU:         "unknown",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if procs > 0 {
		h.GOMAXPROCS = procs
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		n := 0
		for _, line := range strings.Split(string(data), "\n") {
			k, v, ok := strings.Cut(line, ":")
			switch k = strings.TrimSpace(k); {
			case !ok:
			case k == "processor":
				n++
			case k == "model name" && h.CPU == "unknown":
				h.CPU = strings.TrimSpace(v)
			}
		}
		if n > 0 {
			h.NProc = n
		}
	}
	h.Timeshared = h.GOMAXPROCS > h.CPUsAllowed
	return h
}
