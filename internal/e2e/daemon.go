package e2e

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
)

// Daemon is one exec'd nanobusd.
type Daemon struct {
	// Addr and NBWPAddr are the HTTP and NBWP listen addresses the
	// daemon's startup banners announced.
	Addr, NBWPAddr string

	cmd  *exec.Cmd
	rest chan string // stdout after the banners, delivered at EOF
}

// Start execs bin with args, env appended to this process's environment,
// and waits for the two startup banners ("nanobusd: listening on <addr>",
// then "nanobusd: nbwp on <addr>"). The rest of stdout is read in the
// background so the daemon never blocks on a full pipe and Drain can
// check the shutdown message. On error the process is killed.
func Start(bin string, args, env []string) (*Daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &Daemon{cmd: cmd, rest: make(chan string, 1)}
	sc := bufio.NewScanner(stdout)
	banner := func(prefix string) (string, error) {
		if !sc.Scan() {
			return "", fmt.Errorf("nanobusd stdout ended before %q: %v", prefix, sc.Err())
		}
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			return "", fmt.Errorf("unexpected line %q (want %q prefix)", line, prefix)
		}
		return strings.TrimPrefix(line, prefix), nil
	}
	if d.Addr, err = banner("nanobusd: listening on "); err == nil {
		d.NBWPAddr, err = banner("nanobusd: nbwp on ")
	}
	if err != nil {
		d.Kill()
		return nil, err
	}
	go func() {
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		d.rest <- strings.Join(lines, "\n")
	}()
	return d, nil
}

// URL is the daemon's HTTP base URL.
func (d *Daemon) URL() string { return "http://" + d.Addr }

// Pid is the daemon's process id.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// Kill simulates a crash: SIGKILL, no drain, no goodbye. It is a no-op
// once the process has been waited for, so a deferred Kill is the
// cleanup for every failure path.
func (d *Daemon) Kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	_ = d.cmd.Process.Kill() //nanolint:ignore droppederr SIGKILL on a live child cannot meaningfully fail
	_ = d.cmd.Wait()         //nanolint:ignore droppederr the child was SIGKILLed; a non-zero exit is the point
}

// Drain SIGTERMs the daemon and requires a clean shutdown: exit status 0
// and "drained cleanly" on stdout. The stdout tail is read to EOF BEFORE
// cmd.Wait: Wait closes the pipe the moment the process exits, which can
// cut off the reader before it has consumed the buffered drain message.
func (d *Daemon) Drain(ctx context.Context) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	var tail string
	select {
	case tail = <-d.rest:
		// Pipe EOF: the daemon has closed stdout, i.e. it has exited.
	case <-ctx.Done():
		return fmt.Errorf("nanobusd did not exit after SIGTERM: %w", ctx.Err())
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("nanobusd exited uncleanly after SIGTERM: %w", err)
	}
	if !strings.Contains(tail, "drained cleanly") {
		return fmt.Errorf("missing drain message in output:\n%s", tail)
	}
	return nil
}
