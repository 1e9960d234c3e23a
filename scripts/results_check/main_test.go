package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestManifestCoversEveryResultsFile(t *testing.T) {
	rows, err := readManifest("../../results/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, r := range rows {
		listed[r.file] = true
	}
	entries, err := os.ReadDir("../../results")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "MANIFEST" && !listed[name] {
			t.Errorf("results/%s has no manifest row", name)
		}
		delete(listed, e.Name())
	}
	for name := range listed {
		t.Errorf("manifest row %s names no results file", name)
	}
}

func TestReadManifestRejectsBadRows(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range []string{"table1.txt\n", "a.txt table1\na.txt sec33\n"} {
		path := filepath.Join(dir, "MANIFEST")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readManifest(path); err == nil {
			t.Errorf("readManifest(%q) accepted it", bad)
		}
	}
	if _, err := selectRows([]row{{file: "a.txt"}}, []string{"b.txt"}); err == nil {
		t.Error("selectRows accepted a file with no row")
	}
}

func TestFirstDiff(t *testing.T) {
	if d := firstDiff([]byte("a\nb\n"), []byte("a\nb\n")); d != "" {
		t.Fatalf("equal outputs differ: %s", d)
	}
	for _, c := range []struct{ want, got, line string }{
		{"a\nb\n", "a\nc\n", "line 2"},
		{"a\n", "a\nextra\n", "line 2"},
		{"a\nb", "a\nb\n", "line 3"},
	} {
		if d := firstDiff([]byte(c.want), []byte(c.got)); !strings.HasPrefix(d, c.line) {
			t.Errorf("firstDiff(%q, %q) = %q, want it at %s", c.want, c.got, d, c.line)
		}
	}
}
