//go:build race

package thermal

// raceEnabled reports whether the race detector is instrumenting this
// build. TestThermalGolden skips under it: the golden is single-threaded
// arithmetic, so the detector has nothing to find there and only makes
// the ~3 s run take about a minute.
const raceEnabled = true
