package main

// workloadInfo records why a workload exists and how its loop is driven.
type workloadInfo struct {
	Why  string `json:"why"`
	Loop string `json:"loop"`
}

// workloadRationale is the per-workload record BENCHMARK.json's one-line
// "why" summarises. Each layer a planned change touches does most of the
// work on one workload and almost none on another, so a change shows up
// where it should and nowhere else.
var workloadRationale = map[string]workloadInfo{
	"fig3": {
		Why: "The paper's Fig. 3 study as users run it: OEBI/CBI encoding and the DA memo-miss path " +
			"do most of the work; transport and thermal do none.",
		Loop: "closed, 1 load goroutine, no connection; 32 simulators x 8 benchmarks x 2 tapes replayed " +
			"config-major per pass; a step is one simulator's job (its replays of all 8 benchmarks)",
	},
	"nbwp_stream": {
		Why: "The daemon path: IA traffic keeps memo hits near 100% and BI keeps encoding cheap, so framing, " +
			"sessions, samples and the memo hit path do the work.",
		Loop: "closed, 1 load goroutine, in-process daemon, GOMAXPROCS 1, 1 NBWP connection, 8 scalar BI " +
			"sessions, window of 8 pipelined sequenced STEP frames of 4096 words; a step is one frame from send to ack",
	},
	"soc_lockstep": {
		Why: "The full-chip kernel: only this workload runs MultiSim, the shared multi-bus memo and thermal.Grid.",
		Loop: "closed, 1 load goroutine, no connection; 4 coupled buses stepped in lockstep batches of " +
			"32768 rows; a step is one StepBatch call",
	},
}

// layerMetric describes one per-layer metric: its unit, which direction
// is better, and which end-to-end metric it should move on which
// workloads, so later changes can cite it by name.
type layerMetric struct {
	name, unit, better string
	Moves              string `json:"moves"`
	On                 string `json:"on"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// perLayer lists every per-layer metric a traced run reports, on every
// workload; a layer a workload does not run reports 0.
var perLayer = []layerMetric{
	{"workload.capture_s", "s", lower, "setup_s", "fig3, soc_lockstep"},
	{"core.compile_s", "s", lower, "setup_s", "fig3"},
	{"core.new_ms", "ms", lower, "setup_s", "all (session OPEN on nbwp_stream)"},
	{"setup.residual_s", "s", lower, "setup_s", "all: set-up time no capture, compile or build span covers"},
	{"encoding.bi.ns_per_word", "ns", lower, "words_per_s", "fig3; nbwp_stream runs BI"},
	{"encoding.oebi.ns_per_word", "ns", lower, "words_per_s", "fig3 only"},
	{"encoding.cbi.ns_per_word", "ns", lower, "words_per_s", "fig3 only"},
	{"encoding.unencoded.ns_per_word", "ns", lower, "words_per_s", "fig3, soc_lockstep"},
	{"encoding.bi.ns_per_word.ia", "ns", lower, "words_per_s", "fig3 IA bus"},
	{"encoding.bi.ns_per_word.da", "ns", lower, "words_per_s", "fig3 DA bus"},
	{"encoding.oebi.ns_per_word.ia", "ns", lower, "words_per_s", "fig3 IA bus"},
	{"encoding.oebi.ns_per_word.da", "ns", lower, "words_per_s", "fig3 DA bus"},
	{"encoding.cbi.ns_per_word.ia", "ns", lower, "words_per_s", "fig3 IA bus"},
	{"encoding.cbi.ns_per_word.da", "ns", lower, "words_per_s", "fig3 DA bus"},
	{"encoding.unencoded.ns_per_word.ia", "ns", lower, "words_per_s", "fig3 IA bus"},
	{"encoding.unencoded.ns_per_word.da", "ns", lower, "words_per_s", "fig3 DA bus"},
	{"energy.ns_per_word", "ns", lower, "words_per_s, step_p50_ms", "fig3 (DA), nbwp_stream, soc_lockstep"},
	{"energy.ns_per_word.ia", "ns", lower, "words_per_s", "fig3 IA bus"},
	{"energy.ns_per_word.da", "ns", lower, "words_per_s", "fig3 DA bus (memo-miss regime)"},
	{"energy.memo_hits", "count", higher, "words_per_s", "fig3 DA, soc_lockstep; all hits on nbwp_stream"},
	{"energy.memo_misses", "count", lower, "words_per_s", "fig3 DA, soc_lockstep; about 0 on nbwp_stream"},
	{"energy.memo_hit_rate", "ratio", higher, "words_per_s", "fig3 DA, soc_lockstep; about 1.0 on nbwp_stream"},
	{"energy.memo_hits.ia", "count", higher, "words_per_s", "fig3 IA bus"},
	{"energy.memo_misses.ia", "count", lower, "words_per_s", "fig3 IA bus"},
	{"energy.memo_hit_rate.ia", "ratio", higher, "words_per_s", "fig3 IA bus"},
	{"energy.memo_hits.da", "count", higher, "words_per_s", "fig3 DA bus"},
	{"energy.memo_misses.da", "count", lower, "words_per_s", "fig3 DA bus"},
	{"energy.memo_hit_rate.da", "ratio", higher, "words_per_s", "fig3 DA bus"},
	{"thermal.advance_us", "us", lower, "step_p50_ms", "soc_lockstep (Grid), nbwp_stream (Network); about 0 on fig3"},
	{"thermal.advances", "count", lower, "step_p50_ms", "soc_lockstep, nbwp_stream; few on fig3"},
	{"core.self_ns_per_word", "ns", lower, "words_per_s", "fig3, soc_lockstep: step span minus encoding, energy and thermal"},
	{"client.send_us", "us", lower, "step_p50_ms, step_tail_ms", "nbwp_stream"},
	{"client.wait_us", "us", lower, "step_p50_ms, step_tail_ms", "nbwp_stream"},
	{"client.residual_us", "us", lower, "words_per_s", "nbwp_stream: frame wall time minus send and wait"},
	{"server.kernel_us", "us", lower, "step_p50_ms", "nbwp_stream"},
	{"server.residual_us", "us", lower, "step_p50_ms, step_tail_ms", "nbwp_stream: wait minus kernel"},
	{"server.words", "count", higher, "none (count)", "nbwp_stream"},
	{"server.samples", "count", higher, "none (count)", "nbwp_stream"},
	{"nbwp.frames_in", "count", lower, "none (count)", "nbwp_stream"},
	{"nbwp.frames_out", "count", lower, "none (count)", "nbwp_stream"},
	{"trace.overhead_pct", "%", lower, "none (tracing cost)", "all"},
}

// rationaleFor returns the report's rationale block for a workload.
func rationaleFor(name string) any {
	layers := map[string]layerMetric{}
	for _, m := range perLayer {
		layers[m.name] = m
	}
	return map[string]any{"workload": workloadRationale[name], "per_layer": layers}
}

// zeroLayers returns every per-layer metric set to 0, for a workload to
// fill in the layers it runs.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
