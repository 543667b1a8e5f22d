//go:build race

package pipeline_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation budget skips under it because sync.Pool then drops a share of
// returned items at random.
const raceEnabled = true
