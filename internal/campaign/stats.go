package campaign

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"uplan/internal/oracle"
)

// EngineStats aggregates one engine's campaign outcomes across every
// oracle that ran against it, in the style of pipeline.DialectStats.
type EngineStats struct {
	// Engine is the engine key ("postgresql", …).
	Engine string
	// Counters sums the engine's task reports (see oracle.Counters).
	// Queries is less than the configured budget when a task stopped
	// early (MaxFindings reached, or a CERT task whose plan format
	// exposes no estimates). PlanQueries, NewPlans and Mutations are
	// QPG's share: its plan-observed queries, the plan structures it had
	// not seen before (its coverage signal), and the database mutations
	// it applied when coverage stalled.
	oracle.Counters
	// Statements counts the statements the engine instances actually
	// executed (schema setup, oracle probes, EXPLAINs, mutations).
	Statements int
	// Findings is how many deduplicated findings name this engine.
	Findings int
	// ByKind breaks Findings down by kind.
	ByKind map[Kind]int
}

// NewPlanRate is the engine's plan-coverage yield: newly seen plan
// structures per plan-observed query. High early, decaying as coverage
// plateaus — the signal QPG's mutation feedback loop keys on.
func (es *EngineStats) NewPlanRate() float64 {
	if es.PlanQueries == 0 {
		return 0
	}
	return float64(es.NewPlans) / float64(es.PlanQueries)
}

// OracleStats aggregates one oracle's campaign outcomes across every
// engine it ran against — the transpose of EngineStats. The counter set
// is the generic oracle.Counters vocabulary; technique-specific signals
// land in Extra under oracle-chosen names (the bounds oracle's
// "unbounded" and "no-estimate"), so the orchestrator never grows
// per-oracle fields.
type OracleStats struct {
	// Oracle is the oracle's registry name ("qpg", …).
	Oracle string
	// Counters sums the oracle's task reports; an oracle leaves the ones
	// it has no use for at zero.
	oracle.Counters
	// Statements counts statements its engine instances executed.
	Statements int
	// Findings is how many deduplicated findings this oracle produced.
	Findings int
	// ByKind breaks Findings down by kind.
	ByKind map[Kind]int
}

// Stats aggregates a whole campaign run.
type Stats struct {
	// Queries, Statements, and Findings total the per-engine counts.
	Queries    int
	Statements int
	Findings   int
	// DistinctPlans is the cross-engine distinct plan structure count from
	// the shared store (not the sum of the per-engine counts: the same
	// shape on two engines counts once).
	DistinctPlans int
	// Elapsed is the wall time of the whole fan-out.
	Elapsed time.Duration
	// Engines holds the per-engine aggregates, keyed by engine.
	Engines map[string]*EngineStats
	// Oracles holds the per-oracle aggregates, keyed by oracle name.
	Oracles map[string]*OracleStats
}

// QueriesPerSec is the fleet's generated-query throughput over the run's
// wall time. Zero before the run finishes.
func (s Stats) QueriesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Queries) / s.Elapsed.Seconds()
}

// StatementsPerSec is the fleet's executed-statement throughput.
func (s Stats) StatementsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Statements) / s.Elapsed.Seconds()
}

// ByEngine returns the per-engine aggregates sorted by engine name.
func (s Stats) ByEngine() []*EngineStats {
	out := make([]*EngineStats, 0, len(s.Engines))
	for _, es := range s.Engines {
		out = append(out, es)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Engine < out[j].Engine })
	return out
}

// ByOracle returns the per-oracle aggregates in canonical registry
// order (unknown names, if any, after the registered ones, sorted).
func (s Stats) ByOracle() []*OracleStats {
	out := make([]*OracleStats, 0, len(s.Oracles))
	seen := map[string]bool{}
	for _, name := range AllOracles() {
		if os := s.Oracles[name]; os != nil {
			out = append(out, os)
			seen[name] = true
		}
	}
	rest := make([]*OracleStats, 0, len(s.Oracles))
	for name, os := range s.Oracles {
		if !seen[name] {
			rest = append(rest, os)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Oracle < rest[j].Oracle })
	return append(out, rest...)
}

// fold adds one task's contribution to its engine's and its oracle's
// aggregates and to the fleet totals.
func (s *Stats) fold(t task, d taskDelta) {
	es := s.engineStats(t.engine)
	es.Add(d.rep.Counters)
	es.Statements += d.statements
	os := s.oracleStats(t.oracle)
	os.Add(d.rep.Counters)
	os.Statements += d.statements
	s.Queries += d.rep.Queries
	s.Statements += d.statements
}

// engineStats returns (creating if needed) the aggregate for an engine.
func (s *Stats) engineStats(engine string) *EngineStats {
	es := s.Engines[engine]
	if es == nil {
		es = &EngineStats{Engine: engine, ByKind: map[Kind]int{}}
		s.Engines[engine] = es
	}
	return es
}

// oracleStats returns (creating if needed) the aggregate for an oracle.
func (s *Stats) oracleStats(name string) *OracleStats {
	if s.Oracles == nil {
		s.Oracles = map[string]*OracleStats{}
	}
	os := s.Oracles[name]
	if os == nil {
		os = &OracleStats{Oracle: name, ByKind: map[Kind]int{}}
		s.Oracles[name] = os
	}
	return os
}

// String renders the stats as a fixed-width per-engine table with a totals
// row, in the style of pipeline.Stats.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %7s %5s %7s %6s %6s %9s\n",
		"engine", "queries", "stmts", "newplans", "plans", "mut", "checks", "skip", "finds", "plan-rate")
	for _, es := range s.ByEngine() {
		fmt.Fprintf(&b, "%-12s %8d %8d %8d %7d %5d %7d %6d %6d %9.3f\n",
			es.Engine, es.Queries, es.Statements, es.NewPlans, es.DistinctPlans,
			es.Mutations, es.Checks, es.Skipped, es.Findings, es.NewPlanRate())
	}
	fmt.Fprintf(&b, "%-12s %8d %8d %8s %7d %5s %7s %6s %6d   (%.3fs, %.0f q/s)\n",
		"total", s.Queries, s.Statements, "", s.DistinctPlans, "", "", "", s.Findings,
		s.Elapsed.Seconds(), s.QueriesPerSec())
	if len(s.Oracles) > 0 {
		fmt.Fprintf(&b, "%-12s %8s %8s %7s %6s %6s  %s\n",
			"oracle", "queries", "checks", "skipped", "finds", "", "extra")
		for _, os := range s.ByOracle() {
			extra := ""
			if len(os.Extra) > 0 {
				keys := make([]string, 0, len(os.Extra))
				for k := range os.Extra {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				parts := make([]string, 0, len(keys))
				for _, k := range keys {
					parts = append(parts, fmt.Sprintf("%s=%d", k, os.Extra[k]))
				}
				extra = strings.Join(parts, " ")
			}
			fmt.Fprintf(&b, "%-12s %8d %8d %7d %6d %6s  %s\n",
				os.Oracle, os.Queries, os.Checks, os.Skipped, os.Findings, "", extra)
		}
	}
	return b.String()
}
