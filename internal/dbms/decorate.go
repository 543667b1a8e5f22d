package dbms

import (
	"fmt"

	"uplan/internal/exec"
	"uplan/internal/explain"
	"uplan/internal/planner"
)

// The decoration pass: the paper files estimated and actual rows under one
// Cardinality category, and every engine prints them from the same
// planner estimates and executor statistics, so one loop attaches them
// to the nodes the shapers marked, per an engine's fixed decoration set.

// mark ties a shaped node to the physical operator it stands for.
type mark struct {
	n  *explain.Node
	op *planner.PhysOp
	// helper nodes get estimates only: no PhysOp measures their rows.
	helper bool
}

// own records that n emits op's rows: it gets op's estimates and, under
// EXPLAIN ANALYZE, op's actuals.
func (e *Engine) own(n *explain.Node, op *planner.PhysOp) *explain.Node {
	e.marks = append(e.marks, mark{n: n, op: op})
	return n
}

// helper records that n works on op's rows without emitting rows any
// PhysOp measures (a hash build, the sort under a merge join): it gets
// op's estimates only.
func (e *Engine) helper(n *explain.Node, op *planner.PhysOp) *explain.Node {
	e.marks = append(e.marks, mark{n: n, op: op, helper: true})
	return n
}

// decoration is the estimate and actual properties an engine's native
// formats print, fixed per engine in New.
type decoration struct {
	// estimates appends op's estimates to n; nil when the engine prints
	// none.
	estimates func(n *explain.Node, op *planner.PhysOp)
	// actuals adds actual_rows, actual_time_ms and loops under EXPLAIN
	// ANALYZE.
	actuals bool
	// execTime adds the plan-level "Execution Time" under EXPLAIN ANALYZE.
	execTime bool
}

// costBlock is the rounded estimate block of the cost-based relational
// engines.
func costBlock(n *explain.Node, op *planner.PhysOp) {
	n.Add("startup_cost", round2(op.StartCost)).
		Add("total_cost", round2(op.TotalCost)).
		Add("rows", round2(op.EstRows)).
		Add("width", op.Width)
}

// estRows is the raw row estimate alone.
func estRows(n *explain.Node, op *planner.PhysOp) {
	n.Add("rows", op.EstRows)
}

// tidbEstimates gives root-task operators the cost block and cop-task
// operators the row estimate alone.
func tidbEstimates(n *explain.Node, op *planner.PhysOp) {
	if n.Task != "" {
		estRows(n, op)
		return
	}
	costBlock(n, op)
}

// decorate appends the engine's decoration to every node the shaper
// marked, after the node's own properties, and clears the marks. stats
// carries EXPLAIN ANALYZE actuals (nil for plain EXPLAIN).
//
//uplan:hotpath
func (e *Engine) decorate(p *explain.Plan, root *planner.PhysOp, stats map[*planner.PhysOp]*exec.OpStats) {
	d := e.decor
	for _, m := range e.marks {
		if d.estimates != nil {
			d.estimates(m.n, m.op)
		}
		if st := stats[m.op]; d.actuals && !m.helper && st != nil {
			m.n.Add("actual_rows", st.ActualRows).
				Add("actual_time_ms", round3(float64(st.Duration.Microseconds())/1000)).
				Add("loops", st.Loops)
		}
	}
	clear(e.marks) // drop the node pointers so the engine does not pin this plan
	e.marks = e.marks[:0]
	if st := stats[root]; d.execTime && st != nil {
		p.PlanProps = append(p.PlanProps, explain.Prop{Key: "Execution Time", Val: fmt.Sprintf("%.3f ms", float64(st.Duration.Microseconds())/1000)})
	}
}
