package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef is one gated end-to-end metric. BENCHMARK.json mirrors this
// table; TestBenchmarkJSONMatchesHarness keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd lists the gated metrics every workload reports, in print
// order. Bound is the share of the base median a metric may worsen by
// before -compare calls it worse.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// Reported but not gated by a relative bound: failed_frac is gated
// absolutely (any rise fails -compare). The tail latencies are printed
// for context: in ten-run sweeps on the shared reference box the p99's
// quartile spread reached 37% of its median, past the largest bound a
// gated metric may have, so a bound on it would fail changes for the
// host's noise.
var ungatedUnits = map[string]string{
	"failed_frac":     "ratio",
	"latency_p99_ms":  "ms",
	"latency_p999_ms": "ms",
}

func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	return ungatedUnits[name]
}

// metricValue is one measured number with its unit, the shape the
// result line and the -out file share.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's untraced measurement.
type workloadResult struct {
	Metrics   map[string]metricValue `json:"metrics"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	// Samples is the latency sample count behind the percentiles.
	Samples int `json:"samples"`
	// Digest and StoreBytes are the campaign's deterministic outputs: a
	// hash of its canonical finding lists and the bytes its store logs
	// hold. Equal seeds must give equal values.
	Digest     string   `json:"digest,omitempty"`
	StoreBytes int64    `json:"store_bytes_written,omitempty"`
	Errors     []string `json:"errors,omitempty"`
}

func newWorkloadResult() *workloadResult {
	return &workloadResult{Metrics: map[string]metricValue{}}
}

func (r *workloadResult) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// finish derives failed_frac once attempts and failures are final.
func (r *workloadResult) finish() {
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	r.set("failed_frac", frac)
}

func (r *workloadResult) correct() bool {
	return r.Failed == 0 && r.Attempted > 0 && len(r.Errors) == 0
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]metricValue `json:"layers,omitempty"`
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// printWorkload writes one workload's metrics, one per line with unit.
func printWorkload(w io.Writer, name string, r *workloadResult) {
	fmt.Fprintf(w, "== %s: %d ops attempted, %d failed, %d latency samples\n", name, r.Attempted, r.Failed, r.Samples)
	names := make([]string, 0, len(r.Metrics))
	for _, d := range endToEnd {
		if _, ok := r.Metrics[d.Name]; ok {
			names = append(names, d.Name)
		}
	}
	var rest []string
	for n := range r.Metrics {
		if _, ok := ungatedUnits[n]; ok {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range append(names, rest...) {
		m := r.Metrics[n]
		fmt.Fprintf(w, "   %-18s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "   %-18s %14s\n", "campaign_digest", r.Digest)
		fmt.Fprintf(w, "   %-18s %14d bytes\n", "store_bytes", r.StoreBytes)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
}

// resultLine is the one-line JSON summary that ends a -workload run: the
// gated metrics of that workload (or every per-layer metric of a traced
// run) with the op counts behind them.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
