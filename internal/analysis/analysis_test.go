package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadFixture type-checks one package under testdata/src.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// parseWantMarkers scans a fixture directory for trailing "// want <rules>"
// markers and returns the expected set of "file:line:rule" keys.
func parseWantMarkers(t *testing.T, name string) map[string]bool {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ruleNames := map[string]bool{}
		for _, az := range All() {
			ruleNames[az.Name] = true
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, marker, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			// Prose in doc comments may quote the marker syntax; a real
			// marker lists only rule names.
			fields := strings.Fields(marker)
			real := len(fields) > 0
			for _, f := range fields {
				if !ruleNames[f] {
					real = false
				}
			}
			if !real {
				continue
			}
			for _, rule := range fields {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, rule)] = true
			}
		}
	}
	return want
}

// findingKeys renders findings in the marker key format.
func findingKeys(findings []Finding) map[string]bool {
	keys := map[string]bool{}
	for _, f := range findings {
		keys[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)] = true
	}
	return keys
}

func diffKeys(t *testing.T, got, want map[string]bool) {
	t.Helper()
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, k := range missing {
		t.Errorf("expected finding not reported: %s", k)
	}
	for _, k := range extra {
		t.Errorf("unexpected finding: %s", k)
	}
}

// TestAnalyzersOnFixtures runs every analyzer over each golden fixture
// package and compares the unsuppressed findings against the fixture's
// "// want" markers.
func TestAnalyzersOnFixtures(t *testing.T) {
	for _, name := range []string{
		"energy", "droppederr", "floateq", "libpanic",
		"hotalloc", "maporder", "wallclock", "unsafeaudit", "core",
	} {
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, name)
			findings, err := RunParallel([]*Package{pkg}, All(), 0)
			if err != nil {
				t.Fatal(err)
			}
			diffKeys(t, findingKeys(Unsuppressed(findings)), parseWantMarkers(t, name))
		})
	}
}

// TestSuppressionDirectives exercises the directive fixture: same-line and
// line-above placement suppress with their reason; one comma-separated
// directive covers two rules on a line; malformed directives (missing
// reason, wrong verb, unknown rule) are findings themselves and suppress
// nothing; well-formed directives that match nothing are reported as
// unused-suppression.
func TestSuppressionDirectives(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	findings, err := RunParallel([]*Package{pkg}, All(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var suppressedReasons []string
	var suppressedFloat, unsuppressedDropped, malformed, unused int
	for _, f := range findings {
		switch {
		case f.Rule == "droppederr" && f.Suppressed:
			suppressedReasons = append(suppressedReasons, f.SuppressReason)
		case f.Rule == "floateq" && f.Suppressed:
			suppressedFloat++
		case f.Rule == "droppederr":
			unsuppressedDropped++
		case f.Rule == "nanolint":
			malformed++
		case f.Rule == "unused-suppression":
			unused++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	sort.Strings(suppressedReasons)
	wantReasons := []string{
		"line-above fixture justification",
		"multi-rule fixture justification",
		"same-line fixture justification",
	}
	if len(suppressedReasons) != len(wantReasons) {
		t.Fatalf("suppressed reasons = %q, want %q", suppressedReasons, wantReasons)
	}
	for i, want := range wantReasons {
		if suppressedReasons[i] != want {
			t.Errorf("suppressed reason %d = %q, want %q", i, suppressedReasons[i], want)
		}
	}
	// The MultiRule directive also covers the floateq finding on its line.
	if suppressedFloat != 1 {
		t.Errorf("suppressed floateq findings = %d, want 1", suppressedFloat)
	}
	// MissingReason, WrongVerb, WrongRule, UnknownRule, and StaleIgnore all
	// leave their droppederr finding standing.
	if unsuppressedDropped != 5 {
		t.Errorf("unsuppressed droppederr findings = %d, want 5", unsuppressedDropped)
	}
	// The missing-reason, wrong-verb, and unknown-rule directives are
	// malformed.
	if malformed != 3 {
		t.Errorf("malformed directive findings = %d, want 3", malformed)
	}
	// WrongRule's floateq directive and the stale directive above the var
	// suppress nothing.
	if unused != 2 {
		t.Errorf("unused-suppression findings = %d, want 2", unused)
	}
}

// TestRunParallelDeterministic runs the full rule set over every fixture
// package at several worker counts and requires byte-identical findings:
// the parallel driver must not let scheduling order leak into output.
func TestRunParallelDeterministic(t *testing.T) {
	names := []string{
		"energy", "droppederr", "floateq", "libpanic", "suppress",
		"hotalloc", "maporder", "wallclock", "unsafeaudit", "core",
	}
	var pkgs []*Package
	for _, name := range names {
		pkgs = append(pkgs, loadFixture(t, name))
	}
	render := func(fs []Finding) string {
		var b strings.Builder
		for _, f := range fs {
			fmt.Fprintf(&b, "%s suppressed=%v\n", f, f.Suppressed)
		}
		return b.String()
	}
	sequential, err := RunParallel(pkgs, All(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := render(sequential)
	if want == "" {
		t.Fatal("fixtures produced no findings; determinism check is vacuous")
	}
	for _, workers := range []int{0, 2, 7} {
		got, err := RunParallel(pkgs, All(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != want {
			t.Errorf("workers=%d findings differ from sequential run", workers)
		}
	}
	// Sort contract: (file, line, column, rule), non-decreasing.
	for i := 1; i < len(sequential); i++ {
		a, b := sequential[i-1], sequential[i]
		ka := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", a.Pos.Filename, a.Pos.Line, a.Pos.Column, a.Rule)
		kb := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", b.Pos.Filename, b.Pos.Line, b.Pos.Column, b.Rule)
		if ka > kb {
			t.Fatalf("findings out of order at %d: %s before %s", i, a, b)
		}
	}
}

// TestByName checks rule-subset resolution.
func TestByName(t *testing.T) {
	azs, err := ByName([]string{"floateq", "libpanic"})
	if err != nil {
		t.Fatal(err)
	}
	if len(azs) != 2 || azs[0].Name != "floateq" || azs[1].Name != "libpanic" {
		t.Errorf("ByName returned %v", azs)
	}
	if _, err := ByName([]string{"nosuchrule"}); err == nil {
		t.Error("ByName(nosuchrule) returned nil error")
	}
}

// TestRepoClean is the self-gate: the module's own packages must carry zero
// unsuppressed findings. If this fails, fix the offending code or add a
// justified //nanolint:ignore directive.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := RunParallel(pkgs, All(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Unsuppressed(findings) {
		t.Errorf("%s", f)
	}
}
