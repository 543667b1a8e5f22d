package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// verdict is -compare's judgement of one (workload, metric).
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judgement is the comparison of one metric's runs on two sides.
type judgement struct {
	Base, Head [3]float64 // first quartile, median, third quartile
	Delta      float64    // (head − base) / base median
	PairWins   float64    // share of pairs head won; NaN when unpaired
	Verdict    verdict
}

// judge compares one metric's base and head runs against its bound:
//
//   - unresolved: either side's quartile spread exceeds the bound, so the
//     medians cannot tell a regression from noise — unless every run of
//     one side beats every run of the other;
//   - worse: head's median is worse than base's by more than the bound;
//   - better: head's median is better by more than base's own quartile
//     spread, and, when the runs are paired, head won at least nine
//     tenths of the pairs;
//   - within: anything else.
//
// paired says base[i] and head[i] ran back to back, so pair wins count.
func judge(def metricDef, base, head []float64, paired bool) judgement {
	var j judgement
	j.Base[0], j.Base[1], j.Base[2] = quartiles(base)
	j.Head[0], j.Head[1], j.Head[2] = quartiles(head)
	j.Delta = (j.Head[1] - j.Base[1]) / j.Base[1]
	beats := func(a, b float64) bool { // a is better than b
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	worsening := j.Delta
	if def.Better == "higher" {
		worsening = -j.Delta
	}
	j.PairWins = math.NaN()
	if paired && len(base) == len(head) {
		wins := 0
		for i := range base {
			if beats(head[i], base[i]) {
				wins++
			}
		}
		j.PairWins = float64(wins) / float64(len(base))
	}
	dominates := func(a, b []float64) bool { // every run of a beats every run of b
		for _, x := range a {
			for _, y := range b {
				if !beats(x, y) {
					return false
				}
			}
		}
		return true
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }
	noisy := spread(j.Base) > def.Bound || spread(j.Head) > def.Bound
	switch {
	case noisy && !dominates(head, base) && !dominates(base, head):
		j.Verdict = unresolved
	case worsening > def.Bound:
		j.Verdict = worse
	case worsening < 0 && math.Abs(j.Head[1]-j.Base[1]) > j.Base[2]-j.Base[0] &&
		(math.IsNaN(j.PairWins) || j.PairWins >= 0.9):
		j.Verdict = better
	default:
		j.Verdict = within
	}
	return j
}

// runCompare is -compare: for every workload both sides measured and
// every gated metric, each side's median and quartiles, the change, the
// verdict, and the pair-win share when both sides have as many runs
// (their files, sorted by name, are then taken as interleaved pairs).
// It returns 1 on any worse verdict, any rise in failed_frac, or runs of
// one side disagreeing on the campaign digest.
func runCompare(basePattern, headPattern string, stdout io.Writer) int {
	base, err := loadRuns(basePattern)
	if err == nil {
		var head []*runFile
		if head, err = loadRuns(headPattern); err == nil {
			return compareRuns(base, head, stdout)
		}
	}
	fmt.Fprintln(os.Stderr, "uplan-perf:", err)
	return 2
}

func loadRuns(pattern string) ([]*runFile, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no files match %q", pattern)
	}
	slices.Sort(paths)
	runs := make([]*runFile, len(paths))
	for i, p := range paths {
		if runs[i], err = readRunFile(p); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// values collects one metric of one workload from every run that has it.
func values(runs []*runFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if w := r.Workloads[workload]; w != nil {
			if m, ok := w.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func compareRuns(base, head []*runFile, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-15s %31s %31s %8s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "pairs", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			b, h := values(base, wl, def.Name), values(head, wl, def.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			j := judge(def, b, h, len(b) == len(h))
			pairs := "-"
			if !math.IsNaN(j.PairWins) {
				pairs = fmt.Sprintf("%.0f%%", 100*j.PairWins)
			}
			fmt.Fprintf(w, "%-14s %-15s %31s %31s %+7.1f%% %6s  %s\n", wl, def.Name,
				quartileText(j.Base), quartileText(j.Head), 100*j.Delta, pairs, j.Verdict)
			if j.Verdict == worse {
				code = 1
			}
		}
		b, h := append(values(base, wl, "failed_frac"), 0), append(values(head, wl, "failed_frac"), 0)
		if slices.Max(h) > slices.Max(b) {
			fmt.Fprintf(w, "%-14s failed_frac rose: base max %.6f, head max %.6f\n", wl, slices.Max(b), slices.Max(h))
			code = 1
		}
	}
	for _, side := range []struct {
		name string
		runs []*runFile
	}{{"base", base}, {"head", head}} {
		// The first campaign round's findings and store bytes depend only
		// on the seed, so runs sharing one must agree.
		digests := map[string]map[string]bool{}
		for _, r := range side.runs {
			if c := r.Workloads["campaign"]; c != nil && c.Digest != "" {
				key := fmt.Sprintf("seed %d", r.Seed)
				if digests[key] == nil {
					digests[key] = map[string]bool{}
				}
				digests[key][fmt.Sprintf("%s/%d bytes", c.Digest, c.StoreBytes)] = true
			}
		}
		for _, key := range slices.Sorted(maps.Keys(digests)) {
			seen := slices.Sorted(maps.Keys(digests[key]))
			if len(seen) > 1 {
				fmt.Fprintf(w, "%s runs at %s disagree on the campaign digest: %v\n", side.name, key, seen)
				code = 1
			} else {
				fmt.Fprintf(w, "%s campaign digest at %s: %s\n", side.name, key, seen[0])
			}
		}
	}
	return code
}

func quartileText(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
