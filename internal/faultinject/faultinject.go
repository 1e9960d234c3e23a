// Package faultinject provides named failpoints for chaos and robustness
// testing. Production code calls Hit (or Truncate) at interesting sites —
// interval flushes, ingest decodes, checkpoint-store writes — and the
// package decides, per an armed specification, whether to inject a fault:
// a returned error, a panic, a delay, or a truncated byte slice.
//
// Failpoints are armed either programmatically (Set, from tests) or from
// the NANOBUS_FAILPOINTS environment variable at process start:
//
//	NANOBUS_FAILPOINTS='server.ingest.decode=error,nth=3;store.fs.save=sleep=50ms,prob=0.2'
//
// The grammar per failpoint is action[=param][,mod=value...]:
//
//	actions:  error | panic | sleep=<duration> | truncate=<keep-bytes>
//	mods:     nth=<n>    fire only on exactly the n-th hit (1-based)
//	          after=<n>  fire on every hit strictly after the n-th
//	          prob=<p>   fire with probability p (deterministic RNG,
//	                     seeded by NANOBUS_FAILPOINT_SEED, default 1)
//
// When nothing is armed the entire machinery reduces to one atomic load
// per Hit, and the hot sites only run at interval/request granularity, so
// the production cost is negligible.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar arms failpoints at process start; see the package comment for the
// grammar.
const EnvVar = "NANOBUS_FAILPOINTS"

// EnvSeed seeds the deterministic RNG behind prob= triggers (default 1).
const EnvSeed = "NANOBUS_FAILPOINT_SEED"

// ErrInjected is wrapped by every error a failpoint injects; test with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected failure")

type action int

const (
	actError action = iota
	actPanic
	actSleep
	actTruncate
)

// failpoint is one armed site specification.
type failpoint struct {
	name  string
	act   action
	sleep time.Duration
	keep  int // truncate: bytes to keep
	// triggers; zero values mean "fire always".
	nth   uint64
	after uint64
	prob  float64
	hasP  bool
	hits  atomic.Uint64
}

var (
	mu     sync.Mutex
	points map[string]*failpoint
	rng    *rand.Rand
	// armed counts active failpoints so Hit's fast path is one atomic load.
	armed atomic.Int32
)

func init() {
	points = make(map[string]*failpoint)
	seed := int64(1)
	if v := os.Getenv(EnvSeed); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			seed = n
		}
	}
	rng = rand.New(rand.NewSource(seed))
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := SetAll(spec); err != nil {
			// A malformed env spec must be loud: silently running without
			// the requested chaos would make a chaos run vacuously green.
			fmt.Fprintf(os.Stderr, "faultinject: %s: %v\n", EnvVar, err)
		}
	}
}

// Active reports whether any failpoint is armed. Call sites may use it to
// skip preparing arguments; Hit itself already takes the same fast path.
func Active() bool { return armed.Load() > 0 }

// SetAll arms every failpoint of a semicolon-separated name=spec list.
func SetAll(list string) error {
	for _, entry := range strings.Split(list, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, spec, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("faultinject: entry %q is not name=spec", entry)
		}
		if err := Set(name, spec); err != nil {
			return err
		}
	}
	return nil
}

// Set arms the named failpoint with a spec (see the package comment for
// the grammar). Re-arming replaces the previous spec and resets the hit
// counter.
func Set(name, spec string) error {
	fp := &failpoint{name: name}
	parts := strings.Split(spec, ",")
	actTok := strings.TrimSpace(parts[0])
	actName, param, _ := strings.Cut(actTok, "=")
	switch actName {
	case "error":
		fp.act = actError
	case "panic":
		fp.act = actPanic
	case "sleep":
		d, err := time.ParseDuration(param)
		if err != nil {
			return fmt.Errorf("faultinject: %s: bad sleep duration %q: %w", name, param, err)
		}
		fp.act, fp.sleep = actSleep, d
	case "truncate":
		n, err := strconv.Atoi(param)
		if err != nil || n < 0 {
			return fmt.Errorf("faultinject: %s: bad truncate size %q", name, param)
		}
		fp.act, fp.keep = actTruncate, n
	default:
		return fmt.Errorf("faultinject: %s: unknown action %q", name, actName)
	}
	for _, mod := range parts[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(mod), "=")
		if !ok {
			return fmt.Errorf("faultinject: %s: bad modifier %q", name, mod)
		}
		switch key {
		case "nth":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return fmt.Errorf("faultinject: %s: bad nth %q", name, val)
			}
			fp.nth = n
		case "after":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("faultinject: %s: bad after %q", name, val)
			}
			fp.after = n
		case "prob":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("faultinject: %s: bad prob %q", name, val)
			}
			fp.prob, fp.hasP = p, true
		default:
			return fmt.Errorf("faultinject: %s: unknown modifier %q", name, key)
		}
	}
	mu.Lock()
	if _, existed := points[name]; !existed {
		armed.Add(1)
	}
	points[name] = fp
	mu.Unlock()
	return nil
}

// Clear disarms the named failpoint.
func Clear(name string) {
	mu.Lock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every failpoint (test cleanup).
func Reset() {
	mu.Lock()
	for name := range points {
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Hits returns how many times the named failpoint site has been reached
// since it was armed (whether or not it fired).
func Hits(name string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if fp, ok := points[name]; ok {
		return fp.hits.Load()
	}
	return 0
}

// lookup returns the armed failpoint and whether its trigger fires for
// this hit.
func lookup(name string) (*failpoint, bool) {
	mu.Lock()
	defer mu.Unlock()
	fp, ok := points[name]
	if !ok {
		return nil, false
	}
	n := fp.hits.Add(1)
	switch {
	case fp.nth != 0 && n != fp.nth:
		return fp, false
	case fp.after != 0 && n <= fp.after:
		return fp, false
	case fp.hasP && rng.Float64() >= fp.prob:
		return fp, false
	}
	return fp, true
}

// Hit evaluates the named failpoint: it returns nil when nothing is armed
// or the trigger does not fire, returns an ErrInjected-wrapped error for
// error actions, sleeps (then returns nil) for sleep actions, and panics
// for panic actions. Truncate actions are inert here (use Truncate).
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	fp, fire := lookup(name)
	if !fire {
		return nil
	}
	switch fp.act {
	case actError:
		return fmt.Errorf("%w at %s", ErrInjected, name)
	case actPanic:
		//nanolint:ignore libpanic the panic IS the injected fault; chaos tests arm it deliberately
		panic("faultinject: injected panic at " + name)
	case actSleep:
		time.Sleep(fp.sleep)
	}
	return nil
}

// Truncate evaluates a truncate-action failpoint against b: when armed and
// firing it returns b shortened to the configured keep length; otherwise b
// unchanged. Corrupting a checkpoint on its way to disk is the canonical
// use.
func Truncate(name string, b []byte) []byte {
	if armed.Load() == 0 {
		return b
	}
	fp, fire := lookup(name)
	if !fire || fp.act != actTruncate || fp.keep >= len(b) {
		return b
	}
	return b[:fp.keep]
}
