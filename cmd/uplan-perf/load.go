package main

import "time"

// The load is one closed-loop client with one keep-alive connection: it
// sends its next request only after the previous reply, as serveclient
// callers, visualisation tools and campaign fleets do. On the one CPU the
// harness confines itself to, the client and the server take turns; more
// clients would add runnable threads and measure the scheduler of a
// shared host more than the program.

// window is the length of the slices a phase is cut into, so that a
// stall on the shared machine moves a few windows, not the run's number
// (see windowStats). Three seconds leave at least ten requests beyond
// every window's p99 on every serve workload, serve-batch's slowest
// included.
const window = 3 * time.Second

// opFunc performs request i. It reports how many ops the request carried
// (a batch request carries one op per plan), its round trip as the client
// saw it (checking the reply is not part of it), and whether the reply
// was refused or wrong.
type opFunc func(i int64) (ops int, took time.Duration, err error)

// sample is one request as the client saw it.
type sample struct {
	end    time.Duration // since the phase began
	took   time.Duration
	ops    int
	failed bool
}

// loadResult is one closed-loop phase.
type loadResult struct {
	Samples  []sample
	Elapsed  time.Duration
	FirstErr error
}

// closedLoop sends requests 0, 1, 2, ... one at a time until dur has
// passed; a request in flight at the deadline completes and counts.
func closedLoop(dur time.Duration, op opFunc) loadResult {
	var res loadResult
	start := time.Now()
	for i := int64(0); time.Since(start) < dur; i++ {
		n, took, err := op(i)
		res.Samples = append(res.Samples, sample{end: time.Since(start), took: took, ops: n, failed: err != nil})
		if err != nil && res.FirstErr == nil {
			res.FirstErr = err
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// counts returns the ops attempted and the ops of failed requests.
func (lr loadResult) counts() (ops, failed int64) {
	for _, s := range lr.Samples {
		ops += int64(s.ops)
		if s.failed {
			failed += int64(s.ops)
		}
	}
	return ops, failed
}

// windowed cuts the phase into whole windows and summarises their
// completed-op rates and p50 and p99 latencies (ms) with windowStats. A
// phase shorter than two windows is one window.
func (lr loadResult) windowed() (opsPerSec, p50, p99 float64) {
	n := int(lr.Elapsed / window)
	span := window
	if n < 2 {
		n, span = 1, lr.Elapsed
	}
	lat := make([][]time.Duration, n)
	done := make([]float64, n)
	for _, s := range lr.Samples {
		w := int(s.end / span)
		if w >= n {
			continue // finished after the last whole window
		}
		lat[w] = append(lat[w], s.took)
		if !s.failed {
			done[w] += float64(s.ops)
		}
	}
	rates := make([]float64, n)
	p50s := make([]float64, n)
	p99s := make([]float64, n)
	for w := range lat {
		ms := durationsMS(lat[w])
		rates[w] = done[w] / span.Seconds()
		p50s[w] = percentile(ms, 0.50)
		p99s[w] = percentile(ms, 0.99)
	}
	return windowStats(rates, p50s, p99s)
}

// latenciesMS returns every request's round trip in ms, sorted.
func (lr loadResult) latenciesMS() []float64 {
	ds := make([]time.Duration, len(lr.Samples))
	for i, s := range lr.Samples {
		ds[i] = s.took
	}
	return durationsMS(ds)
}
