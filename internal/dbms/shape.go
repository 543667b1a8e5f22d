package dbms

import (
	"fmt"
	"strings"

	"uplan/internal/explain"
	"uplan/internal/planner"
	"uplan/internal/sql"
)

// The shapers convert the engine-neutral physical plan into each DBMS's
// native operator tree, reproducing the representational differences the
// paper documents: operator vocabularies, implicit vs explicit filter and
// projection operators, transport operators of distributed engines, and
// unstable operator identifiers. Shapers add only those engine-specific
// properties; where a shaper builds a node it records which PhysOp the
// node stands for (own, helper), and decorate (decorate.go) then attaches
// every estimate and actual in one pass.

func exprSQL(e sql.Expr) string {
	if e == nil {
		return ""
	}
	return e.SQL()
}

func sortKeySQL(keys []sql.OrderItem) string {
	var parts []string
	for _, k := range keys {
		t := k.Expr.SQL()
		if k.Desc {
			t += " DESC"
		}
		parts = append(parts, t)
	}
	return strings.Join(parts, ", ")
}

func groupKeySQL(keys []sql.Expr) string {
	var parts []string
	for _, k := range keys {
		parts = append(parts, k.SQL())
	}
	return strings.Join(parts, ", ")
}

func hashCondSQL(op *planner.PhysOp) string {
	var parts []string
	for i := range op.HashKeysL {
		parts = append(parts, "("+op.HashKeysL[i].SQL()+" = "+op.HashKeysR[i].SQL()+")")
	}
	if len(parts) == 0 && op.JoinCond != nil {
		return op.JoinCond.SQL()
	}
	return strings.Join(parts, " AND ")
}

// scanObject renders "table" or "table alias" for scan nodes.
func scanObject(op *planner.PhysOp) string {
	if op.Alias != "" && !strings.EqualFold(op.Alias, op.Table) {
		return op.Table + " " + op.Alias
	}
	return op.Table
}

// appendSubplans shapes any subqueries attached to the operator and adds
// them as extra children (how PostgreSQL renders SubPlans, and the reason
// paper Listing 4 shows two aggregation trees for q11).
func appendSubplans(n *explain.Node, op *planner.PhysOp, shape func(op *planner.PhysOp) *explain.Node) {
	for _, sp := range op.Subplans {
		n.Children = append(n.Children, shape(sp.Plan))
	}
}

// dmlNode shapes an INSERT, UPDATE or DELETE: the operator name writes
// op's table from the rows of its inputs.
func dmlNode(name string, op *planner.PhysOp, shape func(op *planner.PhysOp) *explain.Node) *explain.Node {
	n := explain.NewNode(name)
	n.Object = op.Table
	for _, c := range op.Children {
		n.Children = append(n.Children, shape(c))
	}
	return n
}

// -------------------------------------------------------------- PostgreSQL

// pgParallelThreshold is the row estimate beyond which the simulated
// PostgreSQL plans a parallel scan under a Gather node (scaled to the
// harness's small populations the way min_parallel_table_scan_size scales
// to real ones).
const pgParallelThreshold = 150

func shapePostgres(e *Engine, root *planner.PhysOp) *explain.Plan {
	var shape func(op *planner.PhysOp) *explain.Node
	shape = func(op *planner.PhysOp) *explain.Node {
		var n *explain.Node
		switch op.Kind {
		case planner.OpSeqScan:
			n = explain.NewNode("Seq Scan")
			n.Object = scanObject(op)
			if op.Filter != nil {
				n.Add("Filter", exprSQL(op.Filter))
			}
			if op.EstRows > pgParallelThreshold {
				n.Name = "Parallel Seq Scan"
				n = explain.NewNode("Gather", e.own(n, op))
				n.Add("Workers Planned", 2)
			}
		case planner.OpIndexScan:
			if condHasRange(op.IndexCond) {
				inner := explain.NewNode("Bitmap Index Scan")
				inner.Object = op.Index
				inner.Add("Index Cond", exprSQL(op.IndexCond))
				n = explain.NewNode("Bitmap Heap Scan", e.helper(inner, op))
				n.Object = scanObject(op)
				n.Add("Recheck Cond", exprSQL(op.IndexCond))
			} else {
				n = explain.NewNode("Index Scan")
				n.Object = scanObject(op)
				n.Add("Index Name", op.Index)
				n.Add("Index Cond", exprSQL(op.IndexCond))
			}
			if op.Filter != nil {
				n.Add("Filter", exprSQL(op.Filter))
			}
		case planner.OpIndexOnlyScan:
			n = explain.NewNode("Index Only Scan")
			n.Object = scanObject(op)
			n.Add("Index Name", op.Index)
			if op.IndexCond != nil {
				n.Add("Index Cond", exprSQL(op.IndexCond))
			}
		case planner.OpValues:
			n = explain.NewNode("Result")
		case planner.OpFilter:
			// PostgreSQL renders residual predicates as a property of the
			// node below, not as a standalone operator.
			n = shape(op.Children[0])
			n.Add("Filter", exprSQL(op.Filter))
			appendSubplans(n, op, shape)
			return n
		case planner.OpProject:
			// No explicit projection operator in PostgreSQL plans.
			n = shape(op.Children[0])
			appendSubplans(n, op, shape)
			return n
		case planner.OpNLJoin:
			// PostgreSQL materializes the rescanned inner side.
			inner := explain.NewNode("Materialize", shape(op.Children[1]))
			n = explain.NewNode("Nested Loop", shape(op.Children[0]), e.helper(inner, op.Children[1]))
			if op.JoinCond != nil {
				n.Add("Join Filter", exprSQL(op.JoinCond))
			}
			if op.JoinType == sql.JoinLeft {
				n.Add("Join Type", "Left")
			}
		case planner.OpHashJoin:
			hash := explain.NewNode("Hash", shape(op.Children[1]))
			n = explain.NewNode("Hash Join", shape(op.Children[0]), e.helper(hash, op.Children[1]))
			n.Add("Hash Cond", hashCondSQL(op))
			if op.JoinType == sql.JoinLeft {
				n.Add("Join Type", "Left")
			}
		case planner.OpMergeJoin:
			l := explain.NewNode("Sort", shape(op.Children[0]))
			l.Add("Sort Key", groupKeySQL(op.HashKeysL))
			r := explain.NewNode("Sort", shape(op.Children[1]))
			r.Add("Sort Key", groupKeySQL(op.HashKeysR))
			n = explain.NewNode("Merge Join", e.helper(l, op.Children[0]), e.helper(r, op.Children[1]))
			n.Add("Merge Cond", hashCondSQL(op))
		case planner.OpHashAgg:
			name := "Aggregate"
			if len(op.GroupBy) > 0 {
				name = "HashAggregate"
			}
			n = explain.NewNode(name, shape(op.Children[0]))
			if len(op.GroupBy) > 0 {
				n.Add("Group Key", groupKeySQL(op.GroupBy))
			}
		case planner.OpSortAgg:
			s := explain.NewNode("Sort", shape(op.Children[0]))
			s.Add("Sort Key", groupKeySQL(op.GroupBy))
			n = explain.NewNode("GroupAggregate", e.helper(s, op.Children[0]))
			n.Add("Group Key", groupKeySQL(op.GroupBy))
		case planner.OpSort:
			n = explain.NewNode("Sort", shape(op.Children[0]))
			n.Add("Sort Key", sortKeySQL(op.SortKeys))
		case planner.OpTopN:
			s := explain.NewNode("Sort", shape(op.Children[0]))
			s.Add("Sort Key", sortKeySQL(op.SortKeys))
			n = explain.NewNode("Limit", e.helper(s, op))
		case planner.OpLimit:
			n = explain.NewNode("Limit", shape(op.Children[0]))
		case planner.OpDistinct:
			s := explain.NewNode("Sort", shape(op.Children[0]))
			n = explain.NewNode("Unique", e.helper(s, op.Children[0]))
		case planner.OpUnionAll:
			n = explain.NewNode("Append", shape(op.Children[0]), shape(op.Children[1]))
		case planner.OpUnion:
			app := explain.NewNode("Append", shape(op.Children[0]), shape(op.Children[1]))
			srt := explain.NewNode("Sort", e.helper(app, op))
			n = explain.NewNode("Unique", e.helper(srt, op))
		case planner.OpIntersect, planner.OpExcept:
			app := explain.NewNode("Append", shape(op.Children[0]), shape(op.Children[1]))
			n = explain.NewNode("SetOp", e.helper(app, op))
			cmd := "Intersect"
			if op.Kind == planner.OpExcept {
				cmd = "Except"
			}
			n.Add("Command", cmd)
		case planner.OpInsert, planner.OpUpdate, planner.OpDelete:
			n = dmlNode(string(op.Kind), op, shape)
		default:
			n = explain.NewNode(string(op.Kind))
		}
		appendSubplans(n, op, shape)
		return e.own(n, op)
	}
	p := &explain.Plan{Root: shape(root)}
	p.PlanProps = append(p.PlanProps, explain.Prop{Key: "Planning Time", Val: fmt.Sprintf("%.3f ms", e.planningTimeMS(root))})
	return p
}

func condHasRange(cond sql.Expr) bool {
	for _, c := range planner.SplitConjuncts(cond) {
		switch t := c.(type) {
		case *sql.Binary:
			switch t.Op {
			case sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
				return true
			}
		case *sql.Between:
			return true
		case *sql.InList:
			return true
		}
	}
	return false
}

// ------------------------------------------------------------------ MySQL

func shapeMySQL(e *Engine, root *planner.PhysOp) *explain.Plan {
	var shape func(op *planner.PhysOp) *explain.Node
	shape = func(op *planner.PhysOp) *explain.Node {
		var n *explain.Node
		switch op.Kind {
		case planner.OpSeqScan, planner.OpIndexScan, planner.OpIndexOnlyScan:
			n = explain.NewNode("Table scan")
			n.Object = op.Alias
			if op.Kind != planner.OpSeqScan {
				switch {
				case op.Kind == planner.OpIndexOnlyScan:
					n.Name = "Covering index lookup"
				case condHasRange(op.IndexCond) && !condHasEq(op.IndexCond):
					n.Name = "Index range scan"
				default:
					n.Name = "Index lookup"
				}
				n.Add("key", op.Index)
				n.Add("condition", exprSQL(op.IndexCond))
			}
			if op.Filter != nil {
				n = explain.NewNode("Filter", e.own(n, op))
				n.Add("detail", exprSQL(op.Filter))
			}
		case planner.OpValues:
			n = explain.NewNode("Rows fetched before execution")
		case planner.OpFilter:
			n = explain.NewNode("Filter", shape(op.Children[0]))
			n.Add("detail", exprSQL(op.Filter))
		case planner.OpProject:
			n = shape(op.Children[0])
			appendSubplans(n, op, shape)
			return n
		case planner.OpNLJoin:
			name := "Nested loop inner join"
			if op.JoinType == sql.JoinLeft {
				name = "Nested loop left join"
			}
			n = explain.NewNode(name, shape(op.Children[0]), shape(op.Children[1]))
			if op.JoinCond != nil {
				n.Add("condition", exprSQL(op.JoinCond))
			}
		case planner.OpHashJoin, planner.OpMergeJoin:
			name := "Inner hash join"
			if op.JoinType == sql.JoinLeft {
				name = "Left hash join"
			}
			n = explain.NewNode(name, shape(op.Children[0]), shape(op.Children[1]))
			n.Add("condition", hashCondSQL(op))
		case planner.OpHashAgg, planner.OpSortAgg:
			var name string
			switch {
			case len(op.GroupBy) == 0:
				name = "Aggregate"
			case op.Kind == planner.OpSortAgg:
				name = "Group aggregate"
			default:
				name = "Aggregate using temporary table"
			}
			n = explain.NewNode(name, shape(op.Children[0]))
			n.Add("detail", aggDetail(op))
		case planner.OpSort, planner.OpTopN:
			n = explain.NewNode("Sort", shape(op.Children[0]))
			n.Add("detail", sortKeySQL(op.SortKeys))
			if op.Kind == planner.OpTopN {
				n = explain.NewNode("Limit", e.own(n, op))
				n.Add("detail", fmt.Sprintf("%d row(s)", op.Limit))
			}
		case planner.OpLimit:
			n = explain.NewNode("Limit", shape(op.Children[0]))
			n.Add("detail", fmt.Sprintf("%d row(s)", op.Limit))
		case planner.OpDistinct:
			n = explain.NewNode("Deduplicate", shape(op.Children[0]))
		case planner.OpUnionAll:
			n = explain.NewNode("Union all", shape(op.Children[0]), shape(op.Children[1]))
		case planner.OpUnion:
			n = explain.NewNode("Union materialize", shape(op.Children[0]), shape(op.Children[1]))
			n.Add("detail", "with deduplication")
		case planner.OpIntersect:
			n = explain.NewNode("Intersect materialize", shape(op.Children[0]), shape(op.Children[1]))
		case planner.OpExcept:
			n = explain.NewNode("Except materialize", shape(op.Children[0]), shape(op.Children[1]))
		case planner.OpInsert, planner.OpUpdate, planner.OpDelete:
			n = dmlNode(string(op.Kind), op, shape)
		default:
			n = explain.NewNode(string(op.Kind))
		}
		appendSubplans(n, op, shape)
		return e.own(n, op)
	}
	return &explain.Plan{Root: shape(root)}
}

func condHasEq(cond sql.Expr) bool {
	for _, c := range planner.SplitConjuncts(cond) {
		if b, ok := c.(*sql.Binary); ok && b.Op == sql.OpEq {
			return true
		}
		if _, ok := c.(*sql.InList); ok {
			return true
		}
	}
	return false
}

func aggDetail(op *planner.PhysOp) string {
	var parts []string
	for _, a := range op.Aggs {
		parts = append(parts, strings.ToLower(a.Name)+"("+aggArg(a)+")")
	}
	if len(op.GroupBy) > 0 {
		parts = append(parts, "group_by: "+groupKeySQL(op.GroupBy))
	}
	return strings.Join(parts, ", ")
}

func aggArg(a *sql.FuncCall) string {
	if a.Star {
		return "*"
	}
	var parts []string
	for _, x := range a.Args {
		parts = append(parts, x.SQL())
	}
	return strings.Join(parts, ", ")
}
