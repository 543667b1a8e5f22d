package main

import (
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.10, 1}, {0.11, 2}, {0.50, 5}, {0.51, 6}, {0.99, 10}, {0.999, 10}, {1, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(values, n=4),
// which extrapolates past the data for tiny samples; a single value, which
// Python refuses, is its own quartiles.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 3.75, 7.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// The rate and p50 come from the fast end of the windows, the p99 from
// their middle.
func TestWindowStatsTakesTheFastQuartile(t *testing.T) {
	rates := []float64{50, 100, 90, 80, 70, 60, 40, 30}
	p50s := []float64{8, 1, 2, 3, 4, 5, 6, 7}
	p99s := []float64{9, 1, 5, 3}
	rate, p50, p99 := windowStats(rates, p50s, p99s)
	if rate != 80 || p50 != 2 || p99 != 4 {
		t.Errorf("windowStats = %v %v %v, want 80 2 4", rate, p50, p99)
	}
	if rate, p50, p99 := windowStats([]float64{7}, []float64{2}, []float64{3}); rate != 7 || p50 != 2 || p99 != 3 {
		t.Errorf("one window: windowStats = %v %v %v, want 7 2 3", rate, p50, p99)
	}
}

// Whole windows of roundsPerWindow rounds; the rounds after the last
// whole window are left out, and fewer rounds than a window are one.
func TestCampaignWindows(t *testing.T) {
	round := func(ms ...float64) roundReport { return roundReport{IntervalsMS: ms} }
	var rounds []roundReport
	for r := 0; r < 2*roundsPerWindow+1; r++ {
		rounds = append(rounds, round(float64(r)))
	}
	p50s, p99s := campaignWindows(rounds)
	if len(p50s) != 2 || len(p99s) != 2 {
		t.Fatalf("%d rounds gave %d windows, want 2", len(rounds), len(p50s))
	}
	if p99s[1] != float64(2*roundsPerWindow-1) {
		t.Errorf("second window's p99 = %v, want its last round's %d", p99s[1], 2*roundsPerWindow-1)
	}
	if p50s, _ := campaignWindows([]roundReport{round(1, 2, 3)}); len(p50s) != 1 || p50s[0] != 2 {
		t.Errorf("one round: p50s = %v, want [2]", p50s)
	}
}

func TestDurationsMSSorts(t *testing.T) {
	got := durationsMS([]time.Duration{3 * time.Millisecond, 1500 * time.Microsecond})
	if len(got) != 2 || got[0] != 1.5 || got[1] != 3 {
		t.Errorf("durationsMS = %v, want [1.5 3]", got)
	}
}
