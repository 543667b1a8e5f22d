//go:build race

package codec

// raceEnabled reports whether the race detector is compiled in; allocation
// guards skip under it because instrumentation can add bookkeeping allocs.
const raceEnabled = true
