package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		// Patterns resolve relative to the module root (see
		// Loader.ExpandPatterns), so these work no matter where the test
		// binary's working directory sits inside the module.
		{"fixture findings", []string{"internal/analysis/testdata/src/droppederr"}, 1},
		{"fixture magicconst", []string{"-rules", "magicconst", "internal/analysis/testdata/src/energy"}, 1},
		{"fixture ctxpoll", []string{"-rules", "ctxpoll", "internal/analysis/testdata/src/core"}, 1},
		{"fixture unsafeaudit", []string{"-rules", "unsafeaudit", "internal/analysis/testdata/src/unsafeaudit"}, 1},
		{"clean package", []string{"internal/units"}, 0},
		{"list rules", []string{"-list"}, 0},
		{"unknown rule", []string{"-rules", "nosuchrule", "internal/units"}, 2},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"no go files", []string{"internal/analysis/testdata"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args); got != tc.want {
				t.Errorf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestSarifOutput runs the driver with -sarif on a fixture with known
// findings and checks a parseable 2.1.0 document lands on disk even when
// the run exits nonzero.
func TestSarifOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.sarif")
	fixture := "internal/analysis/testdata/src/droppederr"
	if got := run([]string{"-sarif", path, fixture}); got != 1 {
		t.Fatalf("run = %d, want 1", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("SARIF file not written: %v", err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF does not parse: %v", err)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q", doc.Version)
	}
	if len(doc.Runs) != 1 || len(doc.Runs[0].Results) == 0 {
		t.Errorf("SARIF has no results for a fixture with findings")
	}
}
