package e2e

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fakeEnv selects a fake-daemon behaviour when the test binary re-execs
// itself (see TestMain).
const fakeEnv = "E2E_FAKE_DAEMON"

// TestMain turns the test binary into a fake nanobusd or a fake gate
// script when fakeEnv is set, so Start/Drain/Kill and Main are exercised
// against a real child process without building the daemon.
func TestMain(m *testing.M) {
	mode, ok := os.LookupEnv(fakeEnv)
	if !ok {
		os.Exit(m.Run())
	}
	if strings.HasPrefix(mode, "main-") {
		Main("fakegate", time.Minute, func(ctx context.Context, bin string) error {
			if mode == "main-fail" {
				return fmt.Errorf("scenario broke (bin %s)", bin)
			}
			return nil
		})
		os.Exit(0) // Main returns only after printing PASS
	}
	fakeDaemon(mode)
}

// fakeDaemon mimics nanobusd's stdout protocol, broken in the way mode
// names.
func fakeDaemon(mode string) {
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	switch mode {
	case "badfirst":
		fmt.Println("nanobusd: starting up")
		os.Exit(0)
	case "nonbwp":
		fmt.Println("nanobusd: listening on 127.0.0.1:1")
		os.Exit(0)
	}
	fmt.Println("nanobusd: listening on 127.0.0.1:1")
	fmt.Println("nanobusd: nbwp on 127.0.0.1:2")
	fmt.Println("nanobusd: serving")
	<-term
	switch mode {
	case "hang":
		select {}
	case "nodrain":
		os.Exit(0)
	case "exit3":
		fmt.Println("nanobusd: drained cleanly")
		os.Exit(3)
	}
	fmt.Println("nanobusd: drained cleanly")
	os.Exit(0)
}

func startFake(t *testing.T, mode string) (*Daemon, error) {
	t.Helper()
	return Start(os.Args[0], nil, []string{fakeEnv + "=" + mode})
}

func TestStartDrain(t *testing.T) {
	d, err := startFake(t, "ok")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if d.Addr != "127.0.0.1:1" || d.NBWPAddr != "127.0.0.1:2" || d.URL() != "http://127.0.0.1:1" {
		t.Fatalf("banners parsed as %q / %q (url %q)", d.Addr, d.NBWPAddr, d.URL())
	}
	if d.Pid() <= 0 {
		t.Fatalf("pid %d", d.Pid())
	}
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	d.Kill() // no-op after a clean drain
	if !d.cmd.ProcessState.Success() {
		t.Fatalf("Kill after Drain changed the exit: %v", d.cmd.ProcessState)
	}
}

func TestStartRejectsBrokenBanners(t *testing.T) {
	for mode, want := range map[string]string{
		"badfirst": `unexpected line "nanobusd: starting up"`,
		"nonbwp":   `stdout ended before "nanobusd: nbwp on "`,
	} {
		if d, err := startFake(t, mode); err == nil || !strings.Contains(err.Error(), want) {
			if d != nil {
				d.Kill()
			}
			t.Errorf("%s: err %v, want %q", mode, err, want)
		}
	}
	if _, err := Start("/nonexistent/nanobusd", nil, nil); err == nil || !strings.Contains(err.Error(), "start ") {
		t.Errorf("missing binary: err %v", err)
	}
}

func TestDrainFailures(t *testing.T) {
	for mode, want := range map[string]string{
		"nodrain": "missing drain message",
		"exit3":   "exited uncleanly",
	} {
		d, err := startFake(t, mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Drain(context.Background()); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %v, want %q", mode, err, want)
		}
		d.Kill()
	}

	d, err := startFake(t, "hang")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := d.Drain(ctx); err == nil || !strings.Contains(err.Error(), "did not exit after SIGTERM") {
		t.Errorf("hang: err %v", err)
	}
	d.Kill()
	if d.cmd.ProcessState == nil || d.cmd.ProcessState.Success() {
		t.Fatalf("Kill left the hung daemon as %v", d.cmd.ProcessState)
	}
}

func TestKill(t *testing.T) {
	d, err := startFake(t, "ok")
	if err != nil {
		t.Fatal(err)
	}
	d.Kill()
	d.Kill() // idempotent
	if st := d.cmd.ProcessState; st == nil || st.Success() {
		t.Fatalf("after Kill: %v", st)
	}
	if err := d.Drain(context.Background()); err == nil || !strings.Contains(err.Error(), "SIGTERM") {
		t.Fatalf("Drain of a killed daemon: %v", err)
	}
}

// TestMainExitCodes covers the gate entry point's exit codes and PASS/FAIL lines.
func TestMainExitCodes(t *testing.T) {
	for _, tc := range []struct {
		mode string
		args []string
		code int
		out  string
	}{
		{"main-pass", []string{"-bin", "x"}, 0, "fakegate: PASS"},
		{"main-fail", []string{"-bin", "x", "-timeout", "5s"}, 1, "fakegate: FAIL: scenario broke (bin x)"},
		{"main-pass", nil, 2, "fakegate: -bin is required"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), fakeEnv+"="+tc.mode)
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || !strings.Contains(string(out), tc.out) {
			t.Errorf("%s %v: exit %d, output %q; want exit %d with %q", tc.mode, tc.args, code, out, tc.code, tc.out)
		}
	}
}
