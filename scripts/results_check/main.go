// Command results_check reruns the rows of results/MANIFEST with a fresh
// build of cmd/nanobus and fails when any output differs, byte for byte,
// from the committed results file. The files print about four
// significant digits, so it sees changes that move a printed digit; the
// SHA-256 goldens in the tests stay the bit-level guard.
//
//	go run ./scripts/results_check                       # every row
//	go run ./scripts/results_check table1.txt sec33.txt  # the named rows
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// manifest lists the results files, which sit beside it.
const manifest = "results/MANIFEST"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "results_check: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("results_check: PASS")
}

// row is one manifest line: a results file and the arguments of the
// nanobus run that produces it.
type row struct {
	file string
	args []string
}

func run(only []string) error {
	rows, err := readManifest(manifest)
	if err != nil {
		return err
	}
	if rows, err = selectRows(rows, only); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "results_check")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "nanobus")
	build := exec.Command("go", "build", "-o", bin, "./cmd/nanobus")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/nanobus: %w", err)
	}
	dir := filepath.Dir(manifest)
	var failed []string
	for _, r := range rows {
		start := time.Now()
		cmd := exec.Command(bin, r.args...)
		cmd.Stderr = os.Stderr
		got, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("nanobus %s: %w", strings.Join(r.args, " "), err)
		}
		want, err := os.ReadFile(filepath.Join(dir, r.file))
		if err != nil {
			return err
		}
		status := "ok"
		if d := firstDiff(want, got); d != "" {
			status = "DIFFERS: " + d
			failed = append(failed, r.file)
		}
		fmt.Printf("%-18s %6.2fs  nanobus %s  %s\n", r.file, time.Since(start).Seconds(), strings.Join(r.args, " "), status)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d files differ from a fresh run: %s", len(failed), len(rows), strings.Join(failed, ", "))
	}
	return nil
}

func readManifest(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []row
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 || seen[fields[0]] {
			return nil, fmt.Errorf("%s:%d: want one \"<file> <arguments>\" row per file", path, n)
		}
		seen[fields[0]] = true
		rows = append(rows, row{file: fields[0], args: fields[1:]})
	}
	return rows, sc.Err()
}

// selectRows keeps the rows named in only, all of them when it is empty.
func selectRows(rows []row, only []string) ([]row, error) {
	if len(only) == 0 {
		return rows, nil
	}
	byFile := map[string]row{}
	for _, r := range rows {
		byFile[r.file] = r
	}
	out := make([]row, 0, len(only))
	for _, name := range only {
		r, ok := byFile[name]
		if !ok {
			return nil, fmt.Errorf("%s has no manifest row", name)
		}
		out = append(out, r)
	}
	return out, nil
}

// firstDiff describes the first line where got departs from want, or
// returns "" when they are equal.
func firstDiff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; ; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g || i >= len(wl) || i >= len(gl) {
			return fmt.Sprintf("line %d: committed %q, fresh %q", i+1, w, g)
		}
	}
}
