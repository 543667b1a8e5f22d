package dbms

import (
	"fmt"
	"strings"

	"uplan/internal/explain"
	"uplan/internal/planner"
	"uplan/internal/sql"
)

// -------------------------------------------------------------------- TiDB

// tidbCopTask places a storage-side operator in a TiKV coprocessor task.
const tidbCopTask = "cop[tikv]"

// shapeTiDB reproduces TiDB's plan idioms: operators carry unstable _N
// suffixes, storage access is wrapped in root-task reader ("Collect")
// operators with cop-task children, filters appear as Selection operators,
// and a Projection caps most queries.
func shapeTiDB(e *Engine, root *planner.PhysOp) *explain.Plan {
	id := func(name string) string { return fmt.Sprintf("%s_%d", name, e.nextID()) }
	var shape func(op *planner.PhysOp) *explain.Node
	shape = func(op *planner.PhysOp) *explain.Node {
		var n *explain.Node
		switch op.Kind {
		case planner.OpSeqScan:
			scan := explain.NewNode(id("TableFullScan"))
			scan.Object, scan.Task = op.Table, tidbCopTask
			scan.Add("operator info", "keep order:false")
			inner := e.own(scan, op)
			if op.Filter != nil {
				inner = explain.NewNode(id("Selection"), scan)
				inner.Task = tidbCopTask
				inner.Add("operator info", exprSQL(op.Filter))
				e.helper(inner, op)
			}
			n = explain.NewNode(id("TableReader"), inner)
			n.Add("operator info", "data:"+inner.Name)
		case planner.OpIndexScan:
			ixScan := explain.NewNode(id("IndexRangeScan"))
			ixScan.Object, ixScan.Task = op.Table, tidbCopTask
			ixScan.Add("index", op.Index)
			ixScan.Add("operator info", "range decided by "+exprSQL(op.IndexCond))
			rows := explain.NewNode(id("TableRowIDScan"))
			rows.Object, rows.Task = op.Table, tidbCopTask
			rows.Add("operator info", "keep order:false")
			if op.Filter != nil {
				e.helper(rows, op)
				rows = explain.NewNode(id("Selection"), rows)
				rows.Task = tidbCopTask
				rows.Add("operator info", exprSQL(op.Filter))
			}
			n = explain.NewNode(id("IndexLookUp"), e.helper(ixScan, op), e.helper(rows, op))
		case planner.OpIndexOnlyScan:
			ixScan := explain.NewNode(id("IndexFullScan"))
			if op.IndexCond != nil {
				ixScan = explain.NewNode(id("IndexRangeScan"))
				ixScan.Add("operator info", "range decided by "+exprSQL(op.IndexCond))
			} else {
				ixScan.Add("operator info", "keep order:true")
			}
			ixScan.Object, ixScan.Task = op.Table, tidbCopTask
			ixScan.Add("index", op.Index)
			n = explain.NewNode(id("IndexReader"), e.helper(ixScan, op))
			n.Add("operator info", "index:"+ixScan.Name)
		case planner.OpValues:
			n = explain.NewNode(id("TableDual"))
			n.Add("operator info", "rows:1")
		case planner.OpFilter:
			n = explain.NewNode(id("Selection"), shape(op.Children[0]))
			n.Add("operator info", exprSQL(op.Filter))
		case planner.OpProject:
			n = explain.NewNode(id("Projection"), shape(op.Children[0]))
			var cols []string
			for _, c := range op.Schema {
				cols = append(cols, c.Name)
			}
			n.Add("operator info", strings.Join(cols, ", "))
		case planner.OpNLJoin:
			n = explain.NewNode(id("IndexJoin"), shape(op.Children[0]), shape(op.Children[1]))
			n.Add("operator info", "inner join, "+exprSQL(op.JoinCond))
		case planner.OpHashJoin, planner.OpMergeJoin:
			name := "HashJoin"
			if op.Kind == planner.OpMergeJoin {
				name = "MergeJoin"
			}
			// Joins whose inner side reads through an index become
			// IndexHashJoin (the q11 idiom of Listing 4).
			if innerUsesIndex(op.Children[1]) {
				name = "IndexHashJoin"
			}
			n = explain.NewNode(id(name), shape(op.Children[0]), shape(op.Children[1]))
			jt := "inner join"
			if op.JoinType == sql.JoinLeft {
				jt = "left outer join"
			}
			n.Add("operator info", jt+", equal:["+hashCondSQL(op)+"]")
		case planner.OpHashAgg, planner.OpSortAgg:
			name := "HashAgg"
			if op.Kind == planner.OpSortAgg {
				name = "StreamAgg"
			}
			n = explain.NewNode(id(name), shape(op.Children[0]))
			n.Add("operator info", "group by:"+groupKeySQL(op.GroupBy)+", funcs:"+aggDetail(op))
		case planner.OpSort:
			n = explain.NewNode(id("Sort"), shape(op.Children[0]))
			n.Add("operator info", sortKeySQL(op.SortKeys))
		case planner.OpTopN:
			n = explain.NewNode(id("TopN"), shape(op.Children[0]))
			n.Add("operator info", fmt.Sprintf("%s, offset:%d, count:%d",
				sortKeySQL(op.SortKeys), op.Offset, op.Limit))
		case planner.OpLimit:
			n = explain.NewNode(id("Limit"), shape(op.Children[0]))
			n.Add("operator info", fmt.Sprintf("offset:%d, count:%d", op.Offset, op.Limit))
		case planner.OpDistinct:
			n = explain.NewNode(id("HashAgg"), shape(op.Children[0]))
			n.Add("operator info", "group by:all columns")
		case planner.OpUnionAll, planner.OpUnion:
			n = explain.NewNode(id("Union"), shape(op.Children[0]), shape(op.Children[1]))
			if op.Kind == planner.OpUnion {
				n = explain.NewNode(id("HashAgg"), e.helper(n, op))
				n.Add("operator info", "group by:all columns")
			}
		case planner.OpIntersect, planner.OpExcept:
			n = explain.NewNode(id("HashJoin"), shape(op.Children[0]), shape(op.Children[1]))
			info := "semi join"
			if op.Kind == planner.OpExcept {
				info = "anti semi join"
			}
			n.Add("operator info", info)
		case planner.OpInsert, planner.OpUpdate, planner.OpDelete:
			n = dmlNode(id(string(op.Kind)), op, shape)
		default:
			n = explain.NewNode(id(string(op.Kind)))
		}
		appendSubplans(n, op, shape)
		return e.own(n, op)
	}
	return &explain.Plan{Root: shape(root)}
}

func innerUsesIndex(op *planner.PhysOp) bool {
	uses := false
	op.Walk(func(o *planner.PhysOp, _ int) {
		if o.Kind == planner.OpIndexScan || o.Kind == planner.OpIndexOnlyScan {
			uses = true
		}
	})
	return uses
}

// ------------------------------------------------------------------ SQLite

// shapeSQLite reproduces EXPLAIN QUERY PLAN: a flattened list of
// SCAN/SEARCH lines per table access in join order, TEMP B-TREE lines for
// grouping/ordering/distinct, and COMPOUND QUERY trees for set operations.
func shapeSQLite(e *Engine, root *planner.PhysOp) *explain.Plan {
	var shapeQuery func(op *planner.PhysOp) []*explain.Node
	shapeQuery = func(op *planner.PhysOp) []*explain.Node {
		switch op.Kind {
		case planner.OpSeqScan:
			n := explain.NewNode("SCAN")
			n.Object = op.Alias
			return []*explain.Node{n}
		case planner.OpIndexScan:
			n := explain.NewNode("SEARCH")
			n.Object = op.Alias
			n.Add("detail", "USING INDEX "+op.Index+" ("+sqliteCond(op.IndexCond)+")")
			return []*explain.Node{n}
		case planner.OpIndexOnlyScan:
			n := explain.NewNode("SEARCH")
			n.Object = op.Alias
			n.Add("detail", "USING COVERING INDEX "+op.Index+" ("+sqliteCond(op.IndexCond)+")")
			return []*explain.Node{n}
		case planner.OpHashAgg, planner.OpSortAgg:
			nodes := shapeQuery(op.Children[0])
			if len(op.GroupBy) > 0 {
				nodes = append(nodes, explain.NewNode("USE TEMP B-TREE FOR GROUP BY"))
			}
			return nodes
		case planner.OpSort, planner.OpTopN:
			nodes := shapeQuery(op.Children[0])
			return append(nodes, explain.NewNode("USE TEMP B-TREE FOR ORDER BY"))
		case planner.OpDistinct:
			nodes := shapeQuery(op.Children[0])
			return append(nodes, explain.NewNode("USE TEMP B-TREE FOR DISTINCT"))
		case planner.OpUnion, planner.OpUnionAll, planner.OpIntersect, planner.OpExcept:
			leftSub := explain.NewNode("LEFT-MOST SUBQUERY")
			leftSub.Children = shapeQuery(op.Children[0])
			opName := map[planner.OpKind]string{
				planner.OpUnion: "UNION", planner.OpUnionAll: "UNION ALL",
				planner.OpIntersect: "INTERSECT", planner.OpExcept: "EXCEPT",
			}[op.Kind]
			rightSub := explain.NewNode(opName + " USING TEMP B-TREE")
			rightSub.Children = shapeQuery(op.Children[1])
			compound := explain.NewNode("COMPOUND QUERY", leftSub, rightSub)
			return []*explain.Node{compound}
		default:
			var nodes []*explain.Node
			for _, c := range op.Children {
				nodes = append(nodes, shapeQuery(c)...)
			}
			for _, sp := range op.Subplans {
				sub := explain.NewNode("CORRELATED SCALAR SUBQUERY")
				sub.Children = shapeQuery(sp.Plan)
				nodes = append(nodes, sub)
			}
			return nodes
		}
	}
	rootNode := explain.NewNode("QUERY PLAN")
	rootNode.Children = shapeQuery(root)
	return &explain.Plan{Root: rootNode}
}

func sqliteCond(cond sql.Expr) string {
	var parts []string
	for _, c := range planner.SplitConjuncts(cond) {
		switch t := c.(type) {
		case *sql.Binary:
			if ref, ok := t.L.(*sql.ColumnRef); ok {
				op := string(t.Op)
				if t.Op == sql.OpEq {
					op = "="
				}
				parts = append(parts, ref.Name+op+"?")
			}
		case *sql.InList:
			if ref, ok := t.X.(*sql.ColumnRef); ok {
				parts = append(parts, ref.Name+"=?")
			}
		case *sql.Between:
			if ref, ok := t.X.(*sql.ColumnRef); ok {
				parts = append(parts, ref.Name+">? AND "+ref.Name+"<?")
			}
		}
	}
	return strings.Join(parts, " AND ")
}

// -------------------------------------------------------------- SQL Server

func shapeSQLServer(e *Engine, root *planner.PhysOp) *explain.Plan {
	var shape func(op *planner.PhysOp) *explain.Node
	shape = func(op *planner.PhysOp) *explain.Node {
		var n *explain.Node
		switch op.Kind {
		case planner.OpSeqScan:
			n = explain.NewNode("Table Scan")
			n.Object = op.Table
			if op.Filter != nil {
				n.Add("Predicate", exprSQL(op.Filter))
			}
			if op.EstRows > pgParallelThreshold {
				n = explain.NewNode("Parallelism", e.own(n, op))
				n.Add("Partitioning Type", "Gather Streams")
			}
		case planner.OpIndexScan:
			n = explain.NewNode("Index Seek")
			n.Object = op.Table
			n.Add("Object Index", op.Index)
			n.Add("Seek Predicate", exprSQL(op.IndexCond))
			if op.Filter != nil {
				n.Add("Predicate", exprSQL(op.Filter))
			}
		case planner.OpIndexOnlyScan:
			n = explain.NewNode("Index Scan")
			n.Object = op.Table
			n.Add("Object Index", op.Index)
		case planner.OpValues:
			n = explain.NewNode("Constant Scan")
		case planner.OpFilter:
			n = explain.NewNode("Filter", shape(op.Children[0]))
			n.Add("Predicate", exprSQL(op.Filter))
		case planner.OpProject:
			n = explain.NewNode("Compute Scalar", shape(op.Children[0]))
		case planner.OpNLJoin:
			n = explain.NewNode("Nested Loops", shape(op.Children[0]), shape(op.Children[1]))
			if op.JoinCond != nil {
				n.Add("Predicate", exprSQL(op.JoinCond))
			}
		case planner.OpHashJoin:
			n = explain.NewNode("Hash Match", shape(op.Children[0]), shape(op.Children[1]))
			n.Add("Hash Keys Probe", hashCondSQL(op))
		case planner.OpMergeJoin:
			n = explain.NewNode("Merge Join", shape(op.Children[0]), shape(op.Children[1]))
			n.Add("Predicate", hashCondSQL(op))
		case planner.OpHashAgg:
			n = explain.NewNode("Hash Match Aggregate", shape(op.Children[0]))
			n.Add("Group By", groupKeySQL(op.GroupBy))
		case planner.OpSortAgg:
			s := explain.NewNode("Sort", shape(op.Children[0]))
			s.Add("Order By", groupKeySQL(op.GroupBy))
			n = explain.NewNode("Stream Aggregate", e.helper(s, op.Children[0]))
			n.Add("Group By", groupKeySQL(op.GroupBy))
		case planner.OpSort:
			n = explain.NewNode("Sort", shape(op.Children[0]))
			n.Add("Order By", sortKeySQL(op.SortKeys))
		case planner.OpTopN, planner.OpLimit:
			child := shape(op.Children[0])
			if op.Kind == planner.OpTopN {
				child = explain.NewNode("Sort", child)
				child.Add("Order By", sortKeySQL(op.SortKeys))
				e.helper(child, op)
			}
			n = explain.NewNode("Top", child)
			n.Add("Top Expression", fmt.Sprint(op.Limit))
		case planner.OpDistinct:
			n = explain.NewNode("Hash Match Aggregate", shape(op.Children[0]))
			n.Add("Group By", "all output columns")
		case planner.OpUnionAll, planner.OpUnion:
			n = explain.NewNode("Concatenation", shape(op.Children[0]), shape(op.Children[1]))
			if op.Kind == planner.OpUnion {
				n = explain.NewNode("Hash Match Aggregate", e.helper(n, op))
				n.Add("Group By", "all output columns")
			}
		case planner.OpIntersect, planner.OpExcept:
			n = explain.NewNode("Hash Match", shape(op.Children[0]), shape(op.Children[1]))
			kind := "Left Semi Join"
			if op.Kind == planner.OpExcept {
				kind = "Left Anti Semi Join"
			}
			n.Add("Logical Operation", kind)
		case planner.OpInsert, planner.OpUpdate, planner.OpDelete:
			n = dmlNode("Table "+string(op.Kind), op, shape)
		default:
			n = explain.NewNode(string(op.Kind))
		}
		appendSubplans(n, op, shape)
		return e.own(n, op)
	}
	return &explain.Plan{Root: shape(root)}
}
