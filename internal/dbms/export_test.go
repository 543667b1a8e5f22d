package dbms

import (
	"uplan/internal/exec"
	"uplan/internal/explain"
	"uplan/internal/planner"
)

// ExplainTimeless explains query as Explain (analyze false) or
// ExplainAnalyze (analyze true) do, except that every operator's measured
// duration is zeroed before shaping, so EXPLAIN ANALYZE output is a pure
// function of the engine's state.
func ExplainTimeless(e *Engine, query string, format explain.Format, analyze bool) (string, error) {
	e.queries++
	stmt, err := statement(query)
	if err != nil {
		return "", err
	}
	plan, err := e.planner().Plan(stmt)
	if err != nil {
		return "", err
	}
	var stats map[*planner.PhysOp]*exec.OpStats
	if analyze {
		if stats, err = e.analyze(plan); err != nil {
			return "", err
		}
		for _, st := range stats {
			st.Duration = 0
		}
	}
	return explain.Serialize(e.shape(plan, stats), format)
}

// ExecuteWithoutIdentity runs query as Execute does, except that every
// projection's Identity mark is cleared first, so each projection
// evaluates its expressions row by row. It is the reference the identity
// shortcut is checked against.
func ExecuteWithoutIdentity(e *Engine, query string) (*exec.Result, error) {
	plan, err := e.PhysicalPlan(query)
	if err != nil {
		return nil, err
	}
	plan.Walk(func(op *planner.PhysOp, _ int) { op.Identity = false })
	ng := exec.New(e.DB)
	ng.Quirks = e.Quirks
	return ng.Run(plan)
}
