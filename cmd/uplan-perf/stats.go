package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted:
// the smallest sample with at least p of all samples at or below it. It
// never interpolates, so every reported latency is one a request really
// took. Zero for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// windowStats summarises a run cut into windows: rates, and the p50 and
// p99 latencies of each window. Other tenants of a shared host only ever
// slow a window down, so the faster windows estimate the program's own
// speed best: the rate is the upper quartile of the windows' rates and
// the p50 the lower quartile of their p50s (nearest rank, so each is a
// value some window had), a quartile rather than the extreme so that one
// lucky window cannot set it. The p99 is the median of the windows'
// p99s: in ten-run sweeps on the reference box the fast-end quartile of
// p99 spread more between runs than the median did.
func windowStats(rates, p50s, p99s []float64) (rate, p50, p99 float64) {
	return percentile(sortedCopy(rates), 0.75), percentile(sortedCopy(p50s), 0.25), median(p99s)
}

// median is the middle of values (the mean of the two middles for an
// even count). It sorts a copy; values is left as given.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of
// values by the same rule as Python's statistics.quantiles(values, n=4)
// (its default "exclusive" method), so the spreads -compare prints match
// what a script computing them from the same files would get.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// durationsMS converts latencies to sorted milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
