package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"syscall"
)

// median returns the middle value (the mean of the two middle values
// for an even count) of xs, or 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

// tailLadder lists the tail percentiles a run may report, highest first.
// Keeping the ladder coarse keeps each workload's step count far from a
// rung boundary, so runs of one workload always report the same rung. It
// stops at p90: on a shared 2-core host, p99 of millisecond steps is set
// by scheduler and GC hiccups and moved 3-6x between identical runs.
var tailLadder = []float64{90, 50}

// tailPercentile returns the highest ladder percentile with at least 10
// steps beyond it, its value and the step count.
func tailPercentile(steps []float64) (p, v float64, n int) {
	n = len(steps)
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10 {
			return p, quantile(steps, p/100), n
		}
	}
	return 50, median(steps), n
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) / 1024
}

// digest hashes generated inputs so the self-test can compare them
// across runs without keeping them.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) words(ws []uint32) {
	var b [4]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint32(b[:], w)
		//nanolint:ignore droppederr hash.Hash.Write never returns an error
		d.h.Write(b[:])
	}
}

func (d *digest) str(s string) {
	//nanolint:ignore droppederr hash.Hash.Write never returns an error
	d.h.Write([]byte(s))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// mix is splitmix64 over the seed and a salt, the benchmark's only
// source of input variation.
func mix(seed uint64, salt string) uint64 {
	x := seed
	for _, c := range []byte(salt) {
		x = x*0x100000001b3 ^ uint64(c)
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// within reports whether a and b agree to relative tolerance tol; tol 0
// demands equality.
func within(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// hitRate is hits over lookups, or 0 before any lookup.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
