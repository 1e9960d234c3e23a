package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
)

// TestSeedReproducesCounts checks that a seed fixes the inputs and the
// exact work counts of a pass, and that another seed changes the inputs.
func TestSeedReproducesCounts(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			a := mustRun(t, run, options{seed: 7, passes: 1})
			b := mustRun(t, run, options{seed: 7, passes: 1})
			c := mustRun(t, run, options{seed: 8, passes: 1})
			if a.inputs != b.inputs {
				t.Errorf("seed 7 gave inputs %s then %s", a.inputs, b.inputs)
			}
			if !maps.Equal(a.counts, b.counts) {
				t.Errorf("seed 7 gave counts %v then %v", a.counts, b.counts)
			}
			if a.inputs == c.inputs {
				t.Errorf("seeds 7 and 8 gave the same inputs %s", a.inputs)
			}
			if len(a.counts) == 0 || a.counts["words"] == 0 {
				t.Errorf("no work counted: %v", a.counts)
			}
		})
	}
}

// TestTracedRunReportsEveryLayer checks that a traced run yields every
// per-layer metric with its reconciliations.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	out := mustRun(t, runSoC, options{seed: 1, passes: 2, trace: true})
	m, err := buildMetrics(out, true, peakRSSMB())
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(perLayer) {
		t.Errorf("traced run reported %d metrics, want %d", len(m), len(perLayer))
	}
	if len(out.reconcile) == 0 {
		t.Error("traced run reconciled no spans")
	}
}

func mustRun(t *testing.T, run workloadFunc, opts options) *outcome {
	t.Helper()
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	out, err := run(opts, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", out.failed, out.attempted, out.failures)
	}
	return out
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadRationale[w.Name]; !ok {
			t.Errorf("workload %s has no rationale", w.Name)
		}
	}
	var runs []string
	for name := range workloads {
		runs = append(runs, name)
	}
	slices.Sort(names)
	slices.Sort(runs)
	if !slices.Equal(names, runs) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, runs)
	}
	var e2e []entry
	for _, e := range bj.EndToEnd {
		e2e = append(e2e, entry{e.Name, e.Unit, ""})
	}
	out := &outcome{setupS: []float64{1}, unitS: [][]float64{{1}}, passWords: 1, stepsMS: []float64{1}, stepsPerPass: 1, passes: 1}
	m, err := buildMetrics(out, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []entry
	for name, v := range m {
		got = append(got, entry{name, v.Unit, ""})
	}
	byName := func(a, b entry) int {
		if a.Name < b.Name {
			return -1
		}
		if a.Name > b.Name {
			return 1
		}
		return 0
	}
	slices.SortFunc(e2e, byName)
	slices.SortFunc(got, byName)
	if !slices.Equal(e2e, got) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, got)
	}
	var want []entry
	for _, d := range perLayer {
		want = append(want, entry{d.name, d.unit, d.better})
	}
	if !slices.Equal(bj.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", bj.PerLayer, want)
	}
}
