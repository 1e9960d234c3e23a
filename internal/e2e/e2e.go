// Package e2e is the shared harness of the end-to-end gate scripts
// (scripts/nanobusd_smoke, chaos, cluster_chaos and adaptive_gate). It
// owns what the gates share and none may redefine: how an exec'd
// nanobusd is launched and drained, how a session with live samples is
// run over NBWP, how the in-process library reference run is made, and
// what "bit-identical" means when a service result is compared against
// that reference or against another service result. Each script keeps
// only its scenario.
package e2e

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// Main is the entry point every gate script shares. It parses the command
// line — -bin (required) and -timeout (default timeout), plus any flag the
// script registered before the call — runs run under that deadline, and
// prints "<name>: PASS". It exits 1 with "<name>: FAIL: <err>" when run
// fails and 2 when -bin is missing.
func Main(name string, timeout time.Duration, run func(ctx context.Context, bin string) error) {
	bin := flag.String("bin", "", "path to the built nanobusd binary")
	deadline := flag.Duration("timeout", timeout, "overall "+name+" deadline")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintf(os.Stderr, "%s: -bin is required\n", name)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *deadline)
	err := run(ctx, *bin)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: FAIL: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s: PASS\n", name)
}
