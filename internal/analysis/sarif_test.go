package analysis

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteSARIFStructure validates the emitted document against the
// SARIF 2.1.0 shape GitHub code scanning requires, using the suppress
// fixture because it produces ordinary findings, suppressed findings,
// and both pseudo-rules (nanolint, unused-suppression) in one run.
func TestWriteSARIFStructure(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	findings, err := RunParallel([]*Package{pkg}, All(), 0)
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, All(), root); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name    string `json:"name"`
					Version string `json:"version"`
					Rules   []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				Suppressions []struct {
					Kind          string `json:"kind"`
					Justification string `json:"justification"`
				} `json:"suppressions"`
			} `json:"results"`
			OriginalURIBaseIDs map[string]struct {
				URI string `json:"uri"`
			} `json:"originalUriBaseIds"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted SARIF does not parse: %v", err)
	}

	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if !strings.Contains(doc.Schema, "sarif-2.1.0") {
		t.Errorf("$schema = %q", doc.Schema)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "nanolint" || run.Tool.Driver.Version == "" {
		t.Errorf("driver = %q %q", run.Tool.Driver.Name, run.Tool.Driver.Version)
	}
	if len(run.Tool.Driver.Rules) < len(All()) {
		t.Errorf("rules = %d, want at least %d", len(run.Tool.Driver.Rules), len(All()))
	}
	if len(run.Results) != len(findings) {
		t.Errorf("results = %d, want %d (one per finding)", len(run.Results), len(findings))
	}
	if _, ok := run.OriginalURIBaseIDs["%SRCROOT%"]; !ok {
		t.Error("originalUriBaseIds missing %SRCROOT%")
	}

	var sawSuppressed, sawUnused bool
	for i, res := range run.Results {
		// Every result's ruleIndex must point at the rule with its ruleId.
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Fatalf("result %d ruleIndex %d out of range", i, res.RuleIndex)
		}
		if got := run.Tool.Driver.Rules[res.RuleIndex].ID; got != res.RuleID {
			t.Errorf("result %d: ruleIndex resolves to %q, ruleId is %q", i, got, res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result %d has %d locations", i, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if filepath.IsAbs(loc.ArtifactLocation.URI) || strings.Contains(loc.ArtifactLocation.URI, "\\") {
			t.Errorf("result %d URI %q is not a relative slash path", i, loc.ArtifactLocation.URI)
		}
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("result %d uriBaseId = %q", i, loc.ArtifactLocation.URIBaseID)
		}
		if loc.Region.StartLine <= 0 {
			t.Errorf("result %d startLine = %d", i, loc.Region.StartLine)
		}
		if len(res.Suppressions) > 0 {
			sawSuppressed = true
			if res.Suppressions[0].Kind != "inSource" {
				t.Errorf("suppression kind = %q, want inSource", res.Suppressions[0].Kind)
			}
			if res.Suppressions[0].Justification == "" {
				t.Error("suppression has no justification")
			}
		}
		if res.RuleID == "unused-suppression" {
			sawUnused = true
			if res.Level != "note" {
				t.Errorf("unused-suppression level = %q, want note", res.Level)
			}
		} else if res.Level != "error" {
			t.Errorf("result %d level = %q, want error", i, res.Level)
		}
	}
	if !sawSuppressed {
		t.Error("no suppressed result emitted from the suppress fixture")
	}
	if !sawUnused {
		t.Error("no unused-suppression result emitted from the suppress fixture")
	}
}
