package dbms

import (
	"fmt"
	"strings"

	"uplan/internal/explain"
	"uplan/internal/planner"
	"uplan/internal/sql"
)

// ---------------------------------------------------------------- SparkSQL

// shapeSpark reproduces SparkSQL physical plans: FileScan leaves, explicit
// Filter/Project operators, partial/final aggregation pairs separated by
// Exchange operators, sort-merge joins over exchanges, and an
// AdaptiveSparkPlan root.
func shapeSpark(e *Engine, root *planner.PhysOp) *explain.Plan {
	var shape func(op *planner.PhysOp) *explain.Node
	shape = func(op *planner.PhysOp) *explain.Node {
		var n *explain.Node
		switch op.Kind {
		case planner.OpSeqScan, planner.OpIndexScan, planner.OpIndexOnlyScan:
			n = explain.NewNode("FileScan")
			n.Object = "parquet [" + op.Table + "]"
			filter := op.Filter
			if filter == nil {
				filter = op.IndexCond
			} else if op.IndexCond != nil {
				filter = &sql.Binary{Op: sql.OpAnd, L: op.IndexCond, R: op.Filter}
			}
			if filter != nil {
				n = explain.NewNode("Filter", n)
				n.Add("args", "("+exprSQL(filter)+")")
			}
		case planner.OpValues:
			n = explain.NewNode("LocalTableScan")
		case planner.OpFilter:
			n = explain.NewNode("Filter", shape(op.Children[0]))
			n.Add("args", "("+exprSQL(op.Filter)+")")
		case planner.OpProject:
			var cols []string
			for _, c := range op.Schema {
				cols = append(cols, c.Name)
			}
			n = explain.NewNode("Project", shape(op.Children[0]))
			n.Add("args", " ["+strings.Join(cols, ", ")+"]")
		case planner.OpNLJoin:
			n = explain.NewNode("BroadcastNestedLoopJoin",
				shape(op.Children[0]),
				explain.NewNode("BroadcastExchange", shape(op.Children[1])))
			if op.JoinCond != nil {
				n.Add("args", " "+exprSQL(op.JoinCond))
			}
		case planner.OpHashJoin:
			bc := explain.NewNode("BroadcastExchange", shape(op.Children[1]))
			n = explain.NewNode("BroadcastHashJoin", shape(op.Children[0]), bc)
			n.Add("args", " ["+hashCondSQL(op)+"], Inner, BuildRight")
		case planner.OpMergeJoin:
			l := explain.NewNode("Sort",
				explain.NewNode("Exchange", shape(op.Children[0])))
			l.Add("args", " ["+groupKeySQL(op.HashKeysL)+"]")
			r := explain.NewNode("Sort",
				explain.NewNode("Exchange", shape(op.Children[1])))
			r.Add("args", " ["+groupKeySQL(op.HashKeysR)+"]")
			n = explain.NewNode("SortMergeJoin", l, r)
			n.Add("args", " ["+hashCondSQL(op)+"], Inner")
		case planner.OpHashAgg, planner.OpSortAgg:
			name := "HashAggregate"
			if op.Kind == planner.OpSortAgg {
				name = "SortAggregate"
			}
			partial := explain.NewNode(name, shape(op.Children[0]))
			partial.Add("args", fmt.Sprintf("(keys=[%s], functions=[partial_%s])",
				groupKeySQL(op.GroupBy), strings.ToLower(aggDetail(op))))
			exch := explain.NewNode("Exchange", partial)
			exch.Add("args", " hashpartitioning("+groupKeySQL(op.GroupBy)+", 200)")
			n = explain.NewNode(name, exch)
			n.Add("args", fmt.Sprintf("(keys=[%s], functions=[%s])",
				groupKeySQL(op.GroupBy), strings.ToLower(aggDetail(op))))
		case planner.OpSort:
			exch := explain.NewNode("Exchange", shape(op.Children[0]))
			exch.Add("args", " rangepartitioning("+sortKeySQL(op.SortKeys)+", 200)")
			n = explain.NewNode("Sort", exch)
			n.Add("args", " ["+sortKeySQL(op.SortKeys)+"], true, 0")
		case planner.OpTopN:
			n = explain.NewNode("TakeOrderedAndProject", shape(op.Children[0]))
			n.Add("args", fmt.Sprintf("(limit=%d, orderBy=[%s])", op.Limit, sortKeySQL(op.SortKeys)))
		case planner.OpLimit:
			local := explain.NewNode("LocalLimit", shape(op.Children[0]))
			local.Add("args", fmt.Sprintf(" %d", op.Limit))
			n = explain.NewNode("GlobalLimit", local)
			n.Add("args", fmt.Sprintf(" %d", op.Limit))
		case planner.OpDistinct:
			n = explain.NewNode("HashAggregate", shape(op.Children[0]))
			n.Add("args", "(keys=[all], functions=[])")
		case planner.OpUnionAll, planner.OpUnion:
			n = explain.NewNode("Union", shape(op.Children[0]), shape(op.Children[1]))
			if op.Kind == planner.OpUnion {
				n = explain.NewNode("HashAggregate", n)
				n.Add("args", "(keys=[all], functions=[])")
			}
		case planner.OpIntersect, planner.OpExcept:
			n = explain.NewNode("BroadcastHashJoin", shape(op.Children[0]),
				explain.NewNode("BroadcastExchange", shape(op.Children[1])))
			kind := "LeftSemi"
			if op.Kind == planner.OpExcept {
				kind = "LeftAnti"
			}
			n.Add("args", " "+kind)
		default:
			n = explain.NewNode(string(op.Kind))
			for _, c := range op.Children {
				n.Children = append(n.Children, shape(c))
			}
		}
		appendSubplans(n, op, shape)
		return n
	}
	body := shape(root)
	wsc := explain.NewNode("WholeStageCodegen (1)", body)
	top := explain.NewNode("AdaptiveSparkPlan", wsc)
	top.Add("args", " isFinalPlan=false")
	return &explain.Plan{Root: top}
}

// ----------------------------------------------------------------- MongoDB

// shapeMongo reproduces MongoDB's explain("queryPlanner") winning plan for
// the $cursor stage: a collection or index scan plus an optional
// projection. Aggregation pipeline stages ($group, $sort) do not appear in
// the winning plan, which is why the paper's Table VI reports exactly one
// Producer and one Projector per TPC-H query for MongoDB.
func shapeMongo(e *Engine, root *planner.PhysOp) *explain.Plan {
	// Locate the primary scan and overall filter.
	var scanOp *planner.PhysOp
	var filters []string
	root.Walk(func(op *planner.PhysOp, _ int) {
		switch op.Kind {
		case planner.OpSeqScan, planner.OpIndexScan, planner.OpIndexOnlyScan:
			if scanOp == nil {
				scanOp = op
			}
		case planner.OpFilter:
			filters = append(filters, exprSQL(op.Filter))
		}
	})
	var scan *explain.Node
	switch {
	case scanOp == nil:
		scan = explain.NewNode("EOF")
	case scanOp.Kind == planner.OpIndexScan || scanOp.Kind == planner.OpIndexOnlyScan:
		ix := explain.NewNode("IXSCAN")
		ix.Object = scanOp.Table
		ix.Add("indexName", scanOp.Index)
		ix.Add("keyPattern", exprSQL(scanOp.IndexCond))
		ix.Add("direction", "forward")
		scan = explain.NewNode("FETCH", e.own(ix, scanOp))
		if scanOp.Filter != nil {
			scan.Add("filter", exprSQL(scanOp.Filter))
		}
	default:
		scan = explain.NewNode("COLLSCAN")
		scan.Object = scanOp.Table
		scan.Add("direction", "forward")
		if scanOp.Filter != nil {
			filters = append([]string{exprSQL(scanOp.Filter)}, filters...)
		}
		if len(filters) > 0 {
			scan.Add("filter", strings.Join(filters, " AND "))
		}
		e.own(scan, scanOp)
	}
	// Projection wrapper only when the query projects specific columns.
	node := scan
	if proj := findProject(root); proj != nil && !projectsEverything(proj) {
		var cols []string
		for _, c := range proj.Schema {
			cols = append(cols, c.Name+": 1")
		}
		p := explain.NewNode("PROJECTION_DEFAULT", scan)
		p.Add("transformBy", "{ "+strings.Join(cols, ", ")+" }")
		node = p
	}
	return &explain.Plan{Root: node}
}

func findProject(root *planner.PhysOp) *planner.PhysOp {
	var found *planner.PhysOp
	root.Walk(func(op *planner.PhysOp, _ int) {
		if found == nil && op.Kind == planner.OpProject {
			found = op
		}
	})
	return found
}

// projectsEverything reports whether the projection is a plain SELECT *
// over its input: every output is a bare column reference and all input
// columns pass through. Computed outputs (aggregates, expressions) require
// a projection stage.
func projectsEverything(proj *planner.PhysOp) bool {
	if len(proj.Children) == 0 {
		return false
	}
	if len(proj.Projections) != len(proj.Children[0].Schema) {
		return false
	}
	for _, e := range proj.Projections {
		if _, ok := e.(*sql.ColumnRef); !ok {
			return false
		}
	}
	return true
}

// ------------------------------------------------------------------- Neo4j

// shapeNeo4j reproduces Neo4j plan tables: graph-model operators where
// table scans become label scans, joins become relationship traversals
// (classified Join per the paper's study), predicates become Filter
// operators, and every plan is capped by ProduceResults.
func shapeNeo4j(e *Engine, root *planner.PhysOp) *explain.Plan {
	dbHits := 0
	var shape func(op *planner.PhysOp) *explain.Node
	joinDepth := 0
	root.Walk(func(op *planner.PhysOp, _ int) {
		switch op.Kind {
		case planner.OpNLJoin, planner.OpHashJoin, planner.OpMergeJoin:
			joinDepth++
		}
	})
	shape = func(op *planner.PhysOp) *explain.Node {
		var n *explain.Node
		switch op.Kind {
		case planner.OpSeqScan, planner.OpIndexScan, planner.OpIndexOnlyScan:
			switch {
			case op.Kind == planner.OpIndexScan:
				n = explain.NewNode("NodeIndexSeek")
				n.Object = ":" + op.Table + "(" + op.Index + ")"
				n.Add("Details", exprSQL(op.IndexCond))
			case joinDepth > 0:
				// In the graph encoding of relational workloads, base data
				// for joined queries is reached through relationships.
				n = explain.NewNode("DirectedRelationshipTypeScan")
				n.Object = "(:" + op.Table + ")-[r]->()"
			default:
				n = explain.NewNode("NodeByLabelScan")
				n.Object = ":" + op.Table
			}
			dbHits += int(op.EstRows)
			if op.Filter != nil {
				n = explain.NewNode("Filter", e.own(n, op))
				n.Add("Details", exprSQL(op.Filter))
			}
		case planner.OpValues:
			n = explain.NewNode("Argument")
		case planner.OpFilter:
			n = explain.NewNode("Filter", shape(op.Children[0]))
			n.Add("Details", exprSQL(op.Filter))
		case planner.OpProject:
			n = explain.NewNode("Projection", shape(op.Children[0]))
			var cols []string
			for _, c := range op.Schema {
				cols = append(cols, c.Name)
			}
			n.Add("Details", strings.Join(cols, ", "))
		case planner.OpNLJoin, planner.OpHashJoin, planner.OpMergeJoin:
			// Relational joins become relationship expansions from the left
			// input; the right subtree's scans are implied by the expansion.
			n = explain.NewNode("Expand(All)", shape(op.Children[0]))
			n.Add("Details", "("+joinDetail(op)+")")
			dbHits += int(op.EstRows)
			if op.JoinType == sql.JoinLeft {
				n.Name = "OptionalExpand(All)"
			}
			// A second expansion models reaching the right side's relation.
			if hasBaseScan(op.Children[1]) {
				n = explain.NewNode("Expand(Into)", e.own(n, op))
				n.Add("Details", "("+rightScanDetail(op.Children[1])+")")
			}
		case planner.OpHashAgg, planner.OpSortAgg:
			name := "EagerAggregation"
			if op.Kind == planner.OpSortAgg {
				name = "OrderedAggregation"
			}
			n = explain.NewNode(name, shape(op.Children[0]))
			n.Add("Details", groupKeySQL(op.GroupBy))
		case planner.OpSort:
			n = explain.NewNode("Sort", shape(op.Children[0]))
			n.Add("Details", sortKeySQL(op.SortKeys))
		case planner.OpTopN:
			n = explain.NewNode("Top", shape(op.Children[0]))
			n.Add("Details", fmt.Sprintf("%s LIMIT %d", sortKeySQL(op.SortKeys), op.Limit))
		case planner.OpLimit:
			n = explain.NewNode("Limit", shape(op.Children[0]))
			n.Add("Details", fmt.Sprint(op.Limit))
		case planner.OpDistinct:
			n = explain.NewNode("Distinct", shape(op.Children[0]))
		case planner.OpUnion, planner.OpUnionAll:
			n = explain.NewNode("Union", shape(op.Children[0]), shape(op.Children[1]))
			if op.Kind == planner.OpUnion {
				n = explain.NewNode("Distinct", e.helper(n, op))
			}
		default:
			if len(op.Children) == 1 {
				return shape(op.Children[0])
			}
			n = explain.NewNode("Apply")
			for _, c := range op.Children {
				n.Children = append(n.Children, shape(c))
			}
		}
		appendSubplans(n, op, shape)
		return e.own(n, op)
	}
	top := explain.NewNode("ProduceResults", shape(root))
	var cols []string
	for _, c := range root.Schema {
		cols = append(cols, c.Name)
	}
	top.Add("Details", strings.Join(cols, ", "))
	p := &explain.Plan{Root: e.own(top, root)}
	p.PlanProps = append(p.PlanProps,
		explain.Prop{Key: "planner", Val: "COST"},
		explain.Prop{Key: "runtime version", Val: "5.10"},
		explain.Prop{Key: "database accesses", Val: dbHits},
		explain.Prop{Key: "memory", Val: 184},
	)
	return p
}

func joinDetail(op *planner.PhysOp) string {
	if len(op.HashKeysL) > 0 {
		return op.HashKeysL[0].SQL() + ")-[r]->(" + op.HashKeysR[0].SQL()
	}
	return "a)-[r]->(b"
}

func hasBaseScan(op *planner.PhysOp) bool {
	has := false
	op.Walk(func(o *planner.PhysOp, _ int) {
		switch o.Kind {
		case planner.OpSeqScan, planner.OpIndexScan, planner.OpIndexOnlyScan:
			has = true
		}
	})
	return has
}

func rightScanDetail(op *planner.PhysOp) string {
	detail := "b"
	op.Walk(func(o *planner.PhysOp, _ int) {
		if o.Table != "" {
			detail = "b:" + o.Table
		}
	})
	return detail
}

// ---------------------------------------------------------------- InfluxDB

// shapeInflux reproduces InfluxDB's EXPLAIN output: no operators at all,
// only plan-level properties (paper Section III-B: "InfluxDB's query plan
// representation includes only a list of plan-associated properties").
func shapeInflux(e *Engine, root *planner.PhysOp) *explain.Plan {
	expr := ""
	if proj := findProject(root); proj != nil && len(proj.Projections) > 0 {
		expr = proj.Projections[0].SQL()
	}
	series := int(root.EstRows)
	if series < 1 {
		series = 1
	}
	p := &explain.Plan{}
	p.PlanProps = append(p.PlanProps,
		explain.Prop{Key: "expression", Val: expr},
		explain.Prop{Key: "number of shards", Val: 2},
		explain.Prop{Key: "number of series", Val: series},
		explain.Prop{Key: "cached values", Val: 0},
		explain.Prop{Key: "number of files", Val: 2 + series/100},
		explain.Prop{Key: "number of blocks", Val: 4 + series/50},
		explain.Prop{Key: "size of blocks", Val: 1024 + series*16},
	)
	return p
}
