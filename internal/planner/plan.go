// Package planner turns parsed SQL into physical query plans: logical
// analysis, cardinality estimation over catalog statistics, cost-based
// access-path and join-algorithm selection. The produced PhysOp tree is the
// engine-neutral plan that the executor runs and that each simulated DBMS
// dialect reshapes into its native operator vocabulary.
package planner

import (
	"fmt"
	"strings"

	"uplan/internal/sql"
)

// OpKind enumerates physical operators.
type OpKind string

// Physical operator kinds.
const (
	OpSeqScan       OpKind = "SeqScan"
	OpIndexScan     OpKind = "IndexScan"     // index probe + row fetch
	OpIndexOnlyScan OpKind = "IndexOnlyScan" // all columns served by the index
	OpValues        OpKind = "Values"        // constant rows (FROM-less SELECT)
	OpFilter        OpKind = "Filter"
	OpProject       OpKind = "Project"
	OpNLJoin        OpKind = "NestedLoopJoin"
	OpHashJoin      OpKind = "HashJoin"
	OpMergeJoin     OpKind = "MergeJoin"
	OpHashAgg       OpKind = "HashAggregate"
	OpSortAgg       OpKind = "SortAggregate"
	OpSort          OpKind = "Sort"
	OpTopN          OpKind = "TopN"
	OpLimit         OpKind = "Limit"
	OpDistinct      OpKind = "Distinct"
	OpUnion         OpKind = "Union"
	OpUnionAll      OpKind = "UnionAll"
	OpIntersect     OpKind = "Intersect"
	OpExcept        OpKind = "Except"
	OpInsert        OpKind = "Insert"
	OpUpdate        OpKind = "Update"
	OpDelete        OpKind = "Delete"
	OpCreateTable   OpKind = "CreateTable"
	OpCreateIndex   OpKind = "CreateIndex"
)

// OutCol describes one output column of a physical operator.
type OutCol struct {
	// Table is the table alias that owns the column (empty for computed
	// columns).
	Table string
	// Name is the visible column name or alias.
	Name string
	// ExprSQL is the SQL text of the expression that produced the column;
	// the evaluator uses it to resolve aggregate references in HAVING and
	// ORDER BY.
	ExprSQL string
}

// PhysOp is one node of a physical plan.
type PhysOp struct {
	Kind     OpKind
	Children []*PhysOp

	// Estimates filled by the planner.
	EstRows   float64
	StartCost float64
	TotalCost float64
	Width     int

	// Output schema.
	Schema []OutCol

	// Scan fields.
	Table     string // base table name
	Alias     string
	Index     string   // index name for index scans
	IndexCond sql.Expr // predicate satisfied via the index
	Filter    sql.Expr // residual predicate evaluated on rows

	// Join fields.
	JoinType sql.JoinType
	JoinCond sql.Expr // full join condition
	// HashKeysL/R are the equi-join key expressions (parallel slices).
	HashKeysL []sql.Expr
	HashKeysR []sql.Expr

	// Aggregation fields.
	GroupBy []sql.Expr
	Aggs    []*sql.FuncCall

	// Projection fields.
	Projections []sql.Expr
	// Identity marks a projection whose output rows are its input rows:
	// Projections are exactly the input's columns in order, each resolving
	// to its own position. The executor returns such input unchanged.
	Identity bool

	// Sort/limit fields.
	SortKeys []sql.OrderItem
	Limit    int64 // -1 when unset
	Offset   int64
	// HiddenTrailing is the number of trailing input columns that exist
	// only to evaluate ORDER BY keys; the sort strips them from its output.
	HiddenTrailing int

	// DML/DDL payloads.
	Stmt sql.Statement

	// Subplans used by subquery expressions inside Filter/Projections, in
	// AST discovery order. The order is part of the plan: shapers render
	// subplans as extra children, and map iteration here used to make
	// serialized plans differ between identical runs.
	Subplans []Subplan
}

// Subplan pairs a subquery AST node with its planned subtree.
type Subplan struct {
	Sel  *sql.Select
	Plan *PhysOp
}

// NewOp constructs an operator with unset limit.
func NewOp(kind OpKind, children ...*PhysOp) *PhysOp {
	return &PhysOp{Kind: kind, Children: children, Limit: -1}
}

// Walk visits the plan tree in pre-order, including subplans.
func (p *PhysOp) Walk(fn func(op *PhysOp, depth int)) {
	var walk func(op *PhysOp, d int)
	walk = func(op *PhysOp, d int) {
		if op == nil {
			return
		}
		fn(op, d)
		for _, c := range op.Children {
			walk(c, d+1)
		}
		for _, sp := range op.Subplans {
			walk(sp.Plan, d+1)
		}
	}
	walk(p, 0)
}

// String renders the plan for debugging.
func (p *PhysOp) String() string {
	var b strings.Builder
	p.Walk(func(op *PhysOp, d int) {
		b.WriteString(strings.Repeat("  ", d))
		b.WriteString(string(op.Kind))
		if op.Table != "" {
			fmt.Fprintf(&b, " on %s", op.Table)
			if op.Alias != "" && op.Alias != op.Table {
				fmt.Fprintf(&b, " as %s", op.Alias)
			}
		}
		if op.Index != "" {
			fmt.Fprintf(&b, " using %s", op.Index)
		}
		if op.Filter != nil {
			fmt.Fprintf(&b, " filter=%s", op.Filter.SQL())
		}
		if op.JoinCond != nil {
			fmt.Fprintf(&b, " on=%s", op.JoinCond.SQL())
		}
		fmt.Fprintf(&b, " (rows=%.0f cost=%.2f)", op.EstRows, op.TotalCost)
		b.WriteByte('\n')
	})
	return b.String()
}

// ColumnNames returns the plan's output column names.
func (p *PhysOp) ColumnNames() []string {
	out := make([]string, len(p.Schema))
	for i, c := range p.Schema {
		out[i] = c.Name
	}
	return out
}

// FindColumn resolves a column reference against the schema, honoring an
// optional table qualifier. It returns the ordinal or -1.
func FindColumn(schema []OutCol, table, name string) int {
	match := -1
	for i, c := range schema {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if match >= 0 {
			// Ambiguous unqualified reference: prefer exact single match
			// semantics by reporting the first, as the engines do for
			// natural scans; qualified references never get here.
			return match
		}
		match = i
	}
	return match
}

// FindExprColumn resolves an expression to a schema ordinal by its SQL text
// (used for aggregate results and group keys). It returns -1 if absent.
func FindExprColumn(schema []OutCol, e sql.Expr) int {
	if e == nil {
		return -1
	}
	text := e.SQL()
	for i, c := range schema {
		if c.ExprSQL != "" && c.ExprSQL == text {
			return i
		}
	}
	return -1
}
