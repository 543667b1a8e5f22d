package pipeline

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"uplan/internal/core"
)

// DialectStats aggregates one dialect's conversion outcomes.
type DialectStats struct {
	// Dialect is the lowercased engine key the records carried.
	Dialect string
	// Records is the number of records processed (Converted + Errors).
	Records int
	// Converted counts successful conversions.
	Converted int
	// Errors counts failures: unknown dialect or unparsable plan.
	Errors int
	// FirstError samples the first failure seen for the dialect.
	FirstError error
	// Operations is the merged operation histogram of every converted
	// plan, keyed by the paper's seven categories.
	Operations core.CategoryHistogram
}

// Stats aggregates a Run.
type Stats struct {
	// Records, Converted, and Errors total the per-dialect counts.
	Records   int
	Converted int
	Errors    int
	// Elapsed is the wall time from batch start until the last worker
	// finished.
	Elapsed time.Duration
	// Dialects holds the per-dialect aggregates, keyed by lowercased
	// dialect.
	Dialects map[string]*DialectStats
}

// Add folds o into s: the totals, the elapsed time, and each dialect's
// counts, first error and operation histogram.
func (s *Stats) Add(o Stats) {
	if s.Dialects == nil {
		s.Dialects = map[string]*DialectStats{}
	}
	for key, ds := range o.Dialects {
		tot := s.Dialects[key]
		if tot == nil {
			tot = &DialectStats{Dialect: key}
			s.Dialects[key] = tot
		}
		tot.Records += ds.Records
		tot.Converted += ds.Converted
		tot.Errors += ds.Errors
		if tot.FirstError == nil {
			tot.FirstError = ds.FirstError
		}
		if len(ds.Operations) > 0 && tot.Operations == nil {
			tot.Operations = core.CategoryHistogram{}
		}
		for cat, n := range ds.Operations {
			tot.Operations[cat] += n
		}
	}
	s.Records += o.Records
	s.Converted += o.Converted
	s.Errors += o.Errors
	s.Elapsed += o.Elapsed
}

// PlansPerSec is the overall conversion throughput: converted plans per
// second of wall time. Zero before the run finishes.
func (s Stats) PlansPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Converted) / s.Elapsed.Seconds()
}

// DialectPlansPerSec is one dialect's share of the throughput over the
// run's wall time.
func (s Stats) DialectPlansPerSec(dialect string) float64 {
	ds, ok := s.Dialects[strings.ToLower(dialect)]
	if !ok || s.Elapsed <= 0 {
		return 0
	}
	return float64(ds.Converted) / s.Elapsed.Seconds()
}

// Report is the machine-readable snapshot of pipeline statistics; the
// plan service serves its running totals under /metrics.
type Report struct {
	Records        int             `json:"records"`
	Converted      int             `json:"converted"`
	Errors         int             `json:"errors"`
	ElapsedSeconds float64         `json:"elapsed_seconds"`
	PlansPerSec    float64         `json:"plans_per_sec"`
	Dialects       []DialectReport `json:"dialects"`
}

// DialectReport is one dialect's share of a Report.
type DialectReport struct {
	Dialect     string             `json:"dialect"`
	Records     int                `json:"records"`
	Converted   int                `json:"converted"`
	Errors      int                `json:"errors"`
	PlansPerSec float64            `json:"plans_per_sec"`
	FirstError  string             `json:"first_error,omitempty"`
	Operations  map[string]float64 `json:"operations,omitempty"`
}

// Report renders the stats as a JSON-friendly snapshot.
func (s Stats) Report() Report {
	r := Report{
		Records:        s.Records,
		Converted:      s.Converted,
		Errors:         s.Errors,
		ElapsedSeconds: s.Elapsed.Seconds(),
		PlansPerSec:    s.PlansPerSec(),
	}
	for _, ds := range s.ByDialect() {
		dr := DialectReport{
			Dialect:     ds.Dialect,
			Records:     ds.Records,
			Converted:   ds.Converted,
			Errors:      ds.Errors,
			PlansPerSec: s.DialectPlansPerSec(ds.Dialect),
		}
		if ds.FirstError != nil {
			dr.FirstError = ds.FirstError.Error()
		}
		if len(ds.Operations) > 0 {
			dr.Operations = make(map[string]float64, len(ds.Operations))
			for cat, n := range ds.Operations {
				dr.Operations[string(cat)] = n
			}
		}
		r.Dialects = append(r.Dialects, dr)
	}
	return r
}

// ByDialect returns the per-dialect aggregates sorted by dialect name.
func (s Stats) ByDialect() []*DialectStats {
	out := make([]*DialectStats, 0, len(s.Dialects))
	for _, ds := range s.Dialects {
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dialect < out[j].Dialect })
	return out
}

// String renders the stats as a fixed-width per-dialect table with a
// totals row, in the spirit of the paper's category tables.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %7s %10s %8s\n",
		"dialect", "records", "plans", "errors", "plans/s", "ops")
	for _, ds := range s.ByDialect() {
		fmt.Fprintf(&b, "%-12s %8d %8d %7d %10.0f %8.0f\n",
			ds.Dialect, ds.Records, ds.Converted, ds.Errors,
			s.DialectPlansPerSec(ds.Dialect), ds.Operations.Sum())
	}
	fmt.Fprintf(&b, "%-12s %8d %8d %7d %10.0f   (%.3fs)\n",
		"total", s.Records, s.Converted, s.Errors, s.PlansPerSec(),
		s.Elapsed.Seconds())
	return b.String()
}
