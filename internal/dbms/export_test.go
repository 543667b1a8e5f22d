package dbms

import (
	"uplan/internal/exec"
	"uplan/internal/explain"
	"uplan/internal/planner"
	"uplan/internal/sql"
)

// ExplainTimeless explains query as Explain (analyze false) or
// ExplainAnalyze (analyze true) do, except that every operator's measured
// duration is zeroed before shaping, so EXPLAIN ANALYZE output is a pure
// function of the engine's state.
func ExplainTimeless(e *Engine, query string, format explain.Format, analyze bool) (string, error) {
	e.queries++
	stmt, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	plan, err := e.planner().Plan(stmt)
	if err != nil {
		return "", err
	}
	var stats map[*planner.PhysOp]*exec.OpStats
	if analyze {
		ng := exec.New(e.DB)
		ng.Quirks = e.Quirks
		if _, err := ng.Run(plan); err != nil {
			return "", err
		}
		for _, st := range ng.Stats {
			st.Duration = 0
		}
		stats = ng.Stats
	}
	return explain.Serialize(e.shape(plan, stats), format)
}
