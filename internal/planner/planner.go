package planner

import (
	"fmt"
	"iter"
	"math"
	"strings"

	"uplan/internal/catalog"
	"uplan/internal/sql"
)

// JoinPreference biases join-algorithm selection for a dialect.
type JoinPreference uint8

// Join preferences.
const (
	JoinAuto JoinPreference = iota // pure cost-based
	JoinPreferHash
	JoinPreferNL
	JoinPreferMerge
)

// AggPreference biases aggregation-algorithm selection.
type AggPreference uint8

// Aggregation preferences.
const (
	AggAuto AggPreference = iota
	AggPreferHash
	AggPreferSort
)

// Options configure planning for a dialect.
type Options struct {
	Quirks EstimatorQuirks
	Join   JoinPreference
	Agg    AggPreference
	// FuseTopN merges Sort+Limit into a TopN operator (TiDB style).
	FuseTopN bool
	// PreferIndexOnly aggressively chooses covering-index scans when the
	// index covers all referenced columns (TiDB's q11 behaviour).
	PreferIndexOnly bool
	// PreferIndexProbes always chooses an index access path when the
	// predicate contains an equality or IN probe on an indexed column
	// (MySQL's "ref access whenever usable" behaviour).
	PreferIndexProbes bool
}

// Planner builds physical plans over a schema.
type Planner struct {
	Schema *catalog.Schema
	Opts   Options
	est    *Estimator
}

// New returns a planner over the schema.
func New(schema *catalog.Schema, opts Options) *Planner {
	return &Planner{
		Schema: schema,
		Opts:   opts,
		est:    &Estimator{Schema: schema, Quirks: opts.Quirks},
	}
}

// Estimator exposes the planner's estimator (used by tests and CERT).
func (pl *Planner) Estimator() *Estimator { return pl.est }

// Plan builds a physical plan for the statement.
func (pl *Planner) Plan(stmt sql.Statement) (*PhysOp, error) {
	switch t := stmt.(type) {
	case *sql.Select:
		return pl.planSelect(t, t)
	case *sql.Insert:
		op := NewOp(OpInsert)
		op.Table = t.Table
		op.Stmt = t
		op.EstRows = float64(len(t.Rows))
		op.TotalCost = float64(len(t.Rows)) * costSeqRow
		return op, nil
	case *sql.Update:
		child, err := pl.planMutationScan(t.Table, t.Where)
		if err != nil {
			return nil, err
		}
		op := NewOp(OpUpdate, child)
		op.Table = t.Table
		op.Stmt = t
		op.EstRows = child.EstRows
		op.TotalCost = child.TotalCost + child.EstRows*costSeqRow
		return op, nil
	case *sql.Delete:
		child, err := pl.planMutationScan(t.Table, t.Where)
		if err != nil {
			return nil, err
		}
		op := NewOp(OpDelete, child)
		op.Table = t.Table
		op.Stmt = t
		op.EstRows = child.EstRows
		op.TotalCost = child.TotalCost + child.EstRows*costSeqRow
		return op, nil
	case *sql.CreateTable:
		op := NewOp(OpCreateTable)
		op.Table = t.Name
		op.Stmt = t
		op.EstRows = 0
		op.TotalCost = costStartup
		return op, nil
	case *sql.CreateIndex:
		op := NewOp(OpCreateIndex)
		op.Table = t.Table
		op.Index = t.Name
		op.Stmt = t
		op.EstRows = pl.est.TableRows(t.Table)
		op.TotalCost = op.EstRows * costSortRow
		return op, nil
	case *sql.Explain:
		return pl.Plan(t.Stmt)
	}
	return nil, fmt.Errorf("planner: unsupported statement %T", stmt)
}

// planMutationScan plans the scan of an UPDATE or DELETE. Only its WHERE
// references columns, so covering is decided over the WHERE as a select
// from the table.
func (pl *Planner) planMutationScan(table string, where sql.Expr) (*PhysOp, error) {
	tbl := pl.Schema.Table(table)
	if tbl == nil {
		return nil, fmt.Errorf("planner: no such table %q", table)
	}
	scope := &sql.Select{Core: &sql.SelectCore{From: &sql.BaseTable{Name: table}, Where: where}}
	scan := pl.planScan(tbl, table, where, scope)
	if err := pl.planSubqueriesIn(scan, []sql.Expr{where}); err != nil {
		return nil, err
	}
	return scan, nil
}

// planSelect plans a full select. scope is the statement whose column
// references decide covering-index scans: the top-level statement, a
// derived table or a subquery.
func (pl *Planner) planSelect(sel *sql.Select, scope *sql.Select) (*PhysOp, error) {
	var op *PhysOp
	var err error
	if sel.Compound != nil {
		op, err = pl.planCompound(sel.Compound, scope)
	} else {
		op, err = pl.planCore(sel.Core, scope, sel.OrderBy)
	}
	if err != nil {
		return nil, err
	}
	// ORDER BY. Keys that do not resolve in the projected schema (plain
	// columns dropped by the projection, aggregates) are appended to the
	// projection as hidden columns that the sort strips from its output.
	if len(sel.OrderBy) > 0 {
		hidden := 0
		if op.Kind == OpProject {
			var extra []sql.Expr
			for _, o := range sel.OrderBy {
				if !resolvesInSchema(o.Expr, op.Schema) {
					extra = append(extra, o.Expr)
				}
			}
			for _, e := range extra {
				op.Projections = append(op.Projections, e)
				op.Schema = append(op.Schema, OutCol{Name: e.SQL(), ExprSQL: e.SQL()})
				hidden++
			}
			if len(extra) > 0 {
				op.Identity = false
				if err := pl.planSubqueriesIn(op, extra); err != nil {
					return nil, err
				}
			}
		}
		sort := NewOp(OpSort, op)
		sort.SortKeys = sel.OrderBy
		sort.HiddenTrailing = hidden
		sort.Schema = op.Schema[:len(op.Schema)-hidden]
		sort.EstRows = op.EstRows
		sort.Width = op.Width
		n := math.Max(op.EstRows, 2)
		sort.StartCost = op.TotalCost + n*costSortRow*math.Log2(n)
		sort.TotalCost = sort.StartCost + n*costCPUTuple
		op = sort
	}
	// LIMIT / OFFSET.
	if sel.Limit != nil || sel.Offset != nil {
		n := int64(-1)
		off := int64(0)
		if lit, ok := sel.Limit.(*sql.Literal); ok && lit.Val.K != 0 {
			n = lit.Val.I
		}
		if lit, ok := sel.Offset.(*sql.Literal); ok && lit.Val.K != 0 {
			off = lit.Val.I
		}
		if pl.Opts.FuseTopN && op.Kind == OpSort && n >= 0 {
			op.Kind = OpTopN
			op.Limit = n
			op.Offset = off
			if float64(n) < op.EstRows {
				op.EstRows = float64(n)
			}
		} else {
			lim := NewOp(OpLimit, op)
			lim.Limit = n
			lim.Offset = off
			lim.Schema = op.Schema
			lim.Width = op.Width
			lim.EstRows = op.EstRows
			if n >= 0 && float64(n) < lim.EstRows {
				lim.EstRows = float64(n)
			}
			lim.StartCost = op.StartCost
			lim.TotalCost = op.TotalCost
			op = lim
		}
	}
	return op, nil
}

func (pl *Planner) planCompound(c *sql.Compound, scope *sql.Select) (*PhysOp, error) {
	left, err := pl.planSelect(c.Left, scope)
	if err != nil {
		return nil, err
	}
	right, err := pl.planSelect(c.Right, scope)
	if err != nil {
		return nil, err
	}
	if len(left.Schema) != len(right.Schema) {
		return nil, fmt.Errorf("planner: set operation arity mismatch: %d vs %d",
			len(left.Schema), len(right.Schema))
	}
	var kind OpKind
	switch c.Op {
	case sql.UnionAllOp:
		kind = OpUnionAll
	case sql.UnionOp:
		kind = OpUnion
	case sql.IntersectOp:
		kind = OpIntersect
	case sql.ExceptOp:
		kind = OpExcept
	default:
		return nil, fmt.Errorf("planner: unknown set operation %q", c.Op)
	}
	op := NewOp(kind, left, right)
	op.Schema = make([]OutCol, len(left.Schema))
	for i, col := range left.Schema {
		op.Schema[i] = OutCol{Name: col.Name, ExprSQL: col.ExprSQL}
	}
	switch kind {
	case OpUnionAll:
		op.EstRows = left.EstRows + right.EstRows
	case OpUnion:
		op.EstRows = (left.EstRows + right.EstRows) * 0.9
	case OpIntersect:
		op.EstRows = math.Min(left.EstRows, right.EstRows) * 0.5
	case OpExcept:
		op.EstRows = left.EstRows * 0.5
	}
	op.Width = left.Width
	op.TotalCost = left.TotalCost + right.TotalCost +
		(left.EstRows+right.EstRows)*costHashBuild
	return op, nil
}

func (pl *Planner) planCore(core *sql.SelectCore, scope *sql.Select, orderBy []sql.OrderItem) (*PhysOp, error) {
	var input *PhysOp
	var conjuncts []sql.Expr
	if core.Where != nil {
		conjuncts = SplitConjuncts(core.Where)
	}
	if core.From != nil {
		var err error
		input, conjuncts, err = pl.planFrom(core.From, conjuncts, scope)
		if err != nil {
			return nil, err
		}
	} else {
		input = NewOp(OpValues)
		input.EstRows = 1
		input.TotalCost = costStartup
	}
	// Residual WHERE conjuncts (multi-table predicates, subqueries, outer
	// references) become a Filter over the join tree.
	if len(conjuncts) > 0 {
		f := NewOp(OpFilter, input)
		f.Filter = JoinConjuncts(conjuncts)
		f.Schema = input.Schema
		f.Width = input.Width
		sel := pl.est.Selectivity(f.Filter, primaryAlias(input))
		f.EstRows = math.Max(minRows, input.EstRows*sel)
		f.StartCost = input.StartCost
		f.TotalCost = input.TotalCost + input.EstRows*costCPUTuple
		if err := pl.planSubqueriesIn(f, []sql.Expr{f.Filter}); err != nil {
			return nil, err
		}
		input = f
	}

	// Aggregation.
	aggs := collectAggregates(core, orderBy)
	if len(core.GroupBy) > 0 || len(aggs) > 0 {
		agg := pl.planAggregate(core, aggs, input)
		if err := pl.planSubqueriesIn(agg, core.GroupBy); err != nil {
			return nil, err
		}
		input = agg
		if core.Having != nil {
			hf := NewOp(OpFilter, input)
			hf.Filter = core.Having
			hf.Schema = input.Schema
			hf.Width = input.Width
			hf.EstRows = math.Max(minRows, input.EstRows*0.3)
			hf.StartCost = input.StartCost
			hf.TotalCost = input.TotalCost + input.EstRows*costCPUTuple
			if err := pl.planSubqueriesIn(hf, []sql.Expr{core.Having}); err != nil {
				return nil, err
			}
			input = hf
		}
	}

	// Projection.
	proj, err := pl.planProject(core, input)
	if err != nil {
		return nil, err
	}
	input = proj

	// DISTINCT.
	if core.Distinct {
		d := NewOp(OpDistinct, input)
		d.Schema = input.Schema
		d.Width = input.Width
		d.EstRows = math.Max(minRows, input.EstRows*0.8)
		d.StartCost = input.TotalCost
		d.TotalCost = input.TotalCost + input.EstRows*costHashBuild
		input = d
	}
	return input, nil
}

// planFrom builds the join tree, pushing single-alias conjuncts into scans.
// It returns the remaining conjuncts.
func (pl *Planner) planFrom(ref sql.TableRef, conjuncts []sql.Expr, scope *sql.Select) (*PhysOp, []sql.Expr, error) {
	switch t := ref.(type) {
	case *sql.BaseTable:
		tbl := pl.Schema.Table(t.Name)
		if tbl == nil {
			return nil, nil, fmt.Errorf("planner: no such table %q", t.Name)
		}
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		mine, rest := splitByAlias(conjuncts, alias, tbl)
		return pl.planScan(tbl, alias, JoinConjuncts(mine), scope), rest, nil
	case *sql.SubqueryRef:
		sub, err := pl.planSelect(t.Sub, t.Sub)
		if err != nil {
			return nil, nil, err
		}
		// Re-alias output columns under the derived-table alias.
		schema := make([]OutCol, len(sub.Schema))
		for i, c := range sub.Schema {
			schema[i] = OutCol{Table: t.Alias, Name: c.Name}
		}
		sub.Schema = schema
		mine, rest := splitConjunctsBySchema(conjuncts, schema)
		if len(mine) > 0 {
			f := NewOp(OpFilter, sub)
			f.Filter = JoinConjuncts(mine)
			f.Schema = schema
			f.EstRows = math.Max(minRows, sub.EstRows*pl.est.Selectivity(f.Filter, ""))
			f.TotalCost = sub.TotalCost + sub.EstRows*costCPUTuple
			return f, rest, nil
		}
		return sub, rest, nil
	case *sql.JoinRef:
		left, rest, err := pl.planFrom(t.Left, conjuncts, scope)
		if err != nil {
			return nil, nil, err
		}
		right, rest, err := pl.planFrom(t.Right, rest, scope)
		if err != nil {
			return nil, nil, err
		}
		join := pl.planJoin(t, left, right)
		// Inner joins can also absorb WHERE conjuncts that span exactly
		// this join's schema as extra join predicates; re-select the join
		// algorithm afterwards since absorbed equalities enable hashing
		// (this is how comma-joins become hash joins).
		if t.Type != sql.JoinLeft {
			mine, remaining := splitConjunctsBySchema(rest, join.Schema)
			if len(mine) > 0 {
				all := append(SplitConjuncts(join.JoinCond), mine...)
				join.JoinCond = JoinConjuncts(all)
				pl.extractHashKeys(join, left.Schema, right.Schema)
				join.EstRows = math.Max(minRows, join.EstRows*0.5)
				rest = remaining
				pl.chooseJoinAlgo(join, left, right, join.JoinType == sql.JoinCross)
			}
		}
		return join, rest, nil
	}
	return nil, nil, fmt.Errorf("planner: unsupported table reference %T", ref)
}

func primaryAlias(op *PhysOp) string {
	if op == nil {
		return ""
	}
	if op.Alias != "" {
		return op.Alias
	}
	if op.Table != "" {
		return op.Table
	}
	for _, c := range op.Children {
		if a := primaryAlias(c); a != "" {
			return a
		}
	}
	return ""
}

// planScan plans the access path for one base table. It prices the
// sequential scan and the best index first and builds only the operator it
// returns. An index scan becomes index-only when the index covers scope's
// references to the table; with PreferIndexOnly, an unfiltered scan reads
// the first covering index instead of the table.
func (pl *Planner) planScan(tbl *catalog.Table, alias string, filter sql.Expr, scope *sql.Select) *PhysOp {
	rows := pl.est.TableRows(tbl.Name)
	if filter == nil && pl.Opts.PreferIndexOnly {
		for _, def := range tbl.Indexes {
			if covers(def, tbl, alias, scope) {
				ix := newScan(OpIndexOnlyScan, tbl, alias, nil)
				ix.Index = def.Name
				ix.Width = len(def.Columns) * defaultWidth
				ix.EstRows = rows
				ix.TotalCost = rows * (costSeqRow*0.5 + costCPUTuple)
				return ix
			}
		}
	}
	seqCost := rows*costSeqRow + rows*costCPUTuple
	if match := pl.est.BestIndex(tbl, filter); match != nil {
		matchRows := math.Max(minRows, rows*match.Selectivity)
		descent := math.Log2(rows+2) * costIndexStep
		kind, cost := OpIndexScan, descent+matchRows*costRandomRow+matchRows*costCPUTuple
		if covers(match.Index, tbl, alias, scope) {
			kind, cost = OpIndexOnlyScan, descent+matchRows*(costSeqRow+costCPUTuple)
		}
		if pl.Opts.PreferIndexProbes && condHasProbe(match.IndexCond) || cost < seqCost {
			ix := newScan(kind, tbl, alias, match.Residual)
			ix.Index = match.Index.Name
			ix.IndexCond = match.IndexCond
			ix.EstRows = math.Max(minRows, matchRows*pl.est.Selectivity(match.Residual, tbl.Name))
			ix.StartCost = descent
			ix.TotalCost = cost
			return ix
		}
	}
	seq := newScan(OpSeqScan, tbl, alias, filter)
	seq.EstRows = math.Max(minRows, rows*pl.est.Selectivity(filter, tbl.Name))
	seq.TotalCost = seqCost
	return seq
}

// newScan builds a scan of tbl under alias with the table's columns as its
// schema.
func newScan(kind OpKind, tbl *catalog.Table, alias string, filter sql.Expr) *PhysOp {
	op := NewOp(kind)
	op.Table = tbl.Name
	op.Alias = alias
	op.Filter = filter
	op.Schema = make([]OutCol, len(tbl.Columns))
	for i, c := range tbl.Columns {
		op.Schema[i] = OutCol{Table: alias, Name: c.Name}
	}
	op.Width = len(tbl.Columns) * defaultWidth
	return op
}

// condHasProbe reports whether the index condition contains a usable probe
// (equality, IN-list, range, or BETWEEN) — engines with PreferIndexProbes
// use index access whenever any such condition exists.
func condHasProbe(cond sql.Expr) bool {
	for _, c := range SplitConjuncts(cond) {
		switch t := c.(type) {
		case *sql.Binary:
			switch t.Op {
			case sql.OpEq, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
				return true
			}
		case *sql.InList:
			return true
		case *sql.Between:
			return true
		}
	}
	return false
}

// covers reports whether ix holds every column that scope references on
// the table read under alias, and scope references at least one. An
// unqualified reference in a multi-table scope counts for every table that
// has the column; a star that matches the alias references all of them.
func covers(ix *catalog.Index, tbl *catalog.Table, alias string, scope *sql.Select) bool {
	referenced := false
	for a, col := range columnRefs(scope) {
		if a != "" && !strings.EqualFold(a, alias) {
			continue
		}
		switch {
		case col == "*":
			for _, c := range tbl.Columns {
				if !indexHas(ix, c.Name) {
					return false
				}
			}
		case a == "" && tbl.ColumnIndex(col) < 0:
			continue
		case !indexHas(ix, col):
			return false
		}
		referenced = true
	}
	return referenced
}

func indexHas(ix *catalog.Index, col string) bool {
	for _, c := range ix.Columns {
		if strings.EqualFold(c, col) {
			return true
		}
	}
	return false
}

// planJoin selects a join algorithm for one JoinRef.
func (pl *Planner) planJoin(ref *sql.JoinRef, left, right *PhysOp) *PhysOp {
	schema := append(append([]OutCol(nil), left.Schema...), right.Schema...)
	var join *PhysOp
	cond := ref.On

	outRows := left.EstRows * right.EstRows
	if cond != nil {
		outRows *= 0.1 // default join selectivity
	}
	outRows = math.Max(minRows, outRows)

	join = NewOp(OpNLJoin, left, right)
	join.JoinType = ref.Type
	join.JoinCond = cond
	join.Schema = schema
	join.Width = left.Width + right.Width
	pl.extractHashKeys(join, left.Schema, right.Schema)
	pl.chooseJoinAlgo(join, left, right, ref.Type == sql.JoinCross)
	join.EstRows = outRows
	if ref.Type == sql.JoinLeft && outRows < left.EstRows {
		join.EstRows = left.EstRows
	}
	join.StartCost = left.StartCost
	return join
}

// chooseJoinAlgo selects the physical join algorithm from the current hash
// keys and the dialect preference, setting Kind and TotalCost.
func (pl *Planner) chooseJoinAlgo(join *PhysOp, left, right *PhysOp, pureCross bool) {
	nlCost := left.TotalCost + left.EstRows*right.TotalCost +
		left.EstRows*right.EstRows*costCPUTuple
	hashCost := left.TotalCost + right.TotalCost +
		right.EstRows*costHashBuild + left.EstRows*costCPUTuple*2
	mergeCost := left.TotalCost + right.TotalCost +
		(left.EstRows+right.EstRows)*costSortRow*2

	hashable := len(join.HashKeysL) > 0 && !(pureCross && join.JoinCond == nil)
	kind := OpNLJoin
	cost := nlCost
	if hashable {
		switch pl.Opts.Join {
		case JoinPreferHash:
			kind, cost = OpHashJoin, hashCost
		case JoinPreferNL:
			if nlCost > hashCost*100 {
				kind, cost = OpHashJoin, hashCost
			}
		case JoinPreferMerge:
			kind, cost = OpMergeJoin, mergeCost
		default:
			if hashCost < nlCost {
				kind, cost = OpHashJoin, hashCost
			}
		}
	}
	join.Kind = kind
	join.TotalCost = cost
}

// extractHashKeys pulls equality conjuncts "l = r" whose sides resolve to
// opposite inputs out of the join condition.
func (pl *Planner) extractHashKeys(join *PhysOp, lschema, rschema []OutCol) {
	join.HashKeysL = nil
	join.HashKeysR = nil
	for _, c := range SplitConjuncts(join.JoinCond) {
		b, ok := c.(*sql.Binary)
		if !ok || b.Op != sql.OpEq {
			continue
		}
		lIsL := exprResolves(b.L, lschema)
		lIsR := exprResolves(b.L, rschema)
		rIsL := exprResolves(b.R, lschema)
		rIsR := exprResolves(b.R, rschema)
		switch {
		case lIsL && rIsR && !lIsR:
			join.HashKeysL = append(join.HashKeysL, b.L)
			join.HashKeysR = append(join.HashKeysR, b.R)
		case lIsR && rIsL && !lIsL:
			join.HashKeysL = append(join.HashKeysL, b.R)
			join.HashKeysR = append(join.HashKeysR, b.L)
		}
	}
}

// exprResolves reports whether every column reference in e resolves in the
// schema.
func exprResolves(e sql.Expr, schema []OutCol) bool {
	ok := true
	any := false
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if ref, isRef := x.(*sql.ColumnRef); isRef {
			any = true
			if FindColumn(schema, ref.Table, ref.Name) < 0 {
				ok = false
				return false
			}
		}
		return true
	})
	return ok && any
}

// splitByAlias partitions conjuncts into those referencing only the given
// alias (pushable into its scan) and the rest. Conjuncts containing
// subqueries are never pushed.
func splitByAlias(conjuncts []sql.Expr, alias string, tbl *catalog.Table) (mine, rest []sql.Expr) {
	for _, c := range conjuncts {
		if sql.ContainsSubquery(c) {
			rest = append(rest, c)
			continue
		}
		only := true
		sql.WalkExpr(c, func(x sql.Expr) bool {
			if ref, ok := x.(*sql.ColumnRef); ok {
				if ref.Table != "" {
					if !strings.EqualFold(ref.Table, alias) {
						only = false
						return false
					}
				} else if tbl.ColumnIndex(ref.Name) < 0 {
					only = false
					return false
				}
			}
			return true
		})
		if only {
			mine = append(mine, c)
		} else {
			rest = append(rest, c)
		}
	}
	return mine, rest
}

// splitConjunctsBySchema partitions conjuncts into those fully resolvable
// in the schema and the rest.
func splitConjunctsBySchema(conjuncts []sql.Expr, schema []OutCol) (mine, rest []sql.Expr) {
	for _, c := range conjuncts {
		if sql.ContainsSubquery(c) {
			rest = append(rest, c)
			continue
		}
		if exprResolves(c, schema) {
			mine = append(mine, c)
		} else {
			rest = append(rest, c)
		}
	}
	return mine, rest
}

// planAggregate builds the aggregation operator.
func (pl *Planner) planAggregate(core *sql.SelectCore, aggs []*sql.FuncCall, input *PhysOp) *PhysOp {
	kind := OpHashAgg
	if pl.Opts.Agg == AggPreferSort {
		kind = OpSortAgg
	}
	agg := NewOp(kind, input)
	agg.GroupBy = core.GroupBy
	agg.Aggs = aggs
	var schema []OutCol
	for _, g := range core.GroupBy {
		col := OutCol{ExprSQL: g.SQL()}
		if ref, ok := g.(*sql.ColumnRef); ok {
			col.Table = ref.Table
			col.Name = ref.Name
		} else {
			col.Name = g.SQL()
		}
		schema = append(schema, col)
	}
	for _, a := range aggs {
		schema = append(schema, OutCol{Name: a.SQL(), ExprSQL: a.SQL()})
	}
	agg.Schema = schema
	agg.Width = len(schema) * defaultWidth
	groups := math.Max(minRows, input.EstRows*0.1)
	if len(core.GroupBy) == 0 {
		groups = 1
	}
	agg.EstRows = groups
	agg.StartCost = input.TotalCost
	agg.TotalCost = input.TotalCost + input.EstRows*costHashBuild + groups*costCPUTuple
	if kind == OpSortAgg {
		n := math.Max(input.EstRows, 2)
		agg.TotalCost = input.TotalCost + n*costSortRow*math.Log2(n)
	}
	return agg
}

// planProject builds the projection for the select items. A star expands
// to one column reference per matching input column; those references
// share one slab.
func (pl *Planner) planProject(core *sql.SelectCore, input *PhysOp) (*PhysOp, error) {
	proj := NewOp(OpProject, input)
	n, stars := 0, 0
	for _, item := range core.Items {
		if star, ok := item.Expr.(*sql.Star); ok {
			k := starWidth(star, input.Schema)
			n += k
			stars += k
		} else {
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("planner: empty select list")
	}
	exprs := make([]sql.Expr, 0, n)
	schema := make([]OutCol, 0, n)
	refs := make([]sql.ColumnRef, 0, stars)
	for _, item := range core.Items {
		if star, ok := item.Expr.(*sql.Star); ok {
			for _, c := range input.Schema {
				if starMatches(star, c) {
					refs = append(refs, sql.ColumnRef{Table: c.Table, Name: c.Name})
					exprs = append(exprs, &refs[len(refs)-1])
					schema = append(schema, c)
				}
			}
			continue
		}
		exprs = append(exprs, item.Expr)
		col := OutCol{ExprSQL: item.Expr.SQL()}
		switch {
		case item.Alias != "":
			col.Name = item.Alias
		default:
			if ref, ok := item.Expr.(*sql.ColumnRef); ok {
				col.Table = ref.Table
				col.Name = ref.Name
			} else {
				col.Name = item.Expr.SQL()
			}
		}
		schema = append(schema, col)
	}
	proj.Projections = exprs
	proj.Schema = schema
	proj.Identity = isIdentity(exprs, input.Schema)
	proj.Width = len(schema) * defaultWidth
	proj.EstRows = input.EstRows
	proj.StartCost = input.StartCost
	proj.TotalCost = input.TotalCost + input.EstRows*costCPUTuple
	if err := pl.planSubqueriesIn(proj, exprs); err != nil {
		return nil, err
	}
	return proj, nil
}

func starMatches(star *sql.Star, c OutCol) bool {
	return star.Table == "" || strings.EqualFold(c.Table, star.Table)
}

func starWidth(star *sql.Star, schema []OutCol) int {
	n := 0
	for _, c := range schema {
		if starMatches(star, c) {
			n++
		}
	}
	return n
}

// isIdentity reports whether exprs evaluated over rows of schema yield
// those rows unchanged: one column reference per input column, in order,
// each resolving (as the executor resolves it, first match) to its own
// position. Two input columns sharing a table and a name make the second
// reference resolve to the first, so such a projection is not an identity.
func isIdentity(exprs []sql.Expr, schema []OutCol) bool {
	if len(exprs) != len(schema) {
		return false
	}
	for i, e := range exprs {
		ref, ok := e.(*sql.ColumnRef)
		if !ok || FindColumn(schema, ref.Table, ref.Name) != i {
			return false
		}
	}
	return true
}

// planSubqueriesIn plans every subquery appearing in the expressions and
// attaches the subplans to op.
func (pl *Planner) planSubqueriesIn(op *PhysOp, exprs []sql.Expr) error {
	for _, e := range exprs {
		var err error
		sql.WalkExpr(e, func(x sql.Expr) bool {
			if err != nil {
				return false
			}
			var sub *sql.Select
			switch t := x.(type) {
			case *sql.ScalarSubquery:
				sub = t.Sub
			case *sql.InSubquery:
				sub = t.Sub
			case *sql.Exists:
				sub = t.Sub
			}
			if sub == nil {
				return true
			}
			for _, sp := range op.Subplans {
				if sp.Sel == sub {
					return true // already planned for this operator
				}
			}
			plan, perr := pl.planSelect(sub, sub)
			if perr != nil {
				err = perr
				return false
			}
			op.Subplans = append(op.Subplans, Subplan{Sel: sub, Plan: plan})
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// resolvesInSchema reports whether an ORDER BY key can be evaluated against
// the given output schema: it matches a column or expression column, or
// every column reference and aggregate inside it resolves.
func resolvesInSchema(e sql.Expr, schema []OutCol) bool {
	if FindExprColumn(schema, e) >= 0 {
		return true
	}
	if ref, ok := e.(*sql.ColumnRef); ok {
		return FindColumn(schema, ref.Table, ref.Name) >= 0
	}
	if _, ok := e.(*sql.Literal); ok {
		return true
	}
	ok := true
	sql.WalkExpr(e, func(x sql.Expr) bool {
		switch t := x.(type) {
		case *sql.ColumnRef:
			if FindColumn(schema, t.Table, t.Name) < 0 {
				ok = false
				return false
			}
		case *sql.FuncCall:
			if t.IsAggregate() && FindExprColumn(schema, t) < 0 {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// collectAggregates gathers all aggregate calls from items, HAVING and
// ORDER BY of the core (deduplicated by SQL text).
func collectAggregates(core *sql.SelectCore, orderBy []sql.OrderItem) []*sql.FuncCall {
	seen := map[string]bool{}
	var out []*sql.FuncCall
	visit := func(e sql.Expr) {
		sql.WalkExpr(e, func(x sql.Expr) bool {
			if f, ok := x.(*sql.FuncCall); ok && f.IsAggregate() {
				if !seen[f.SQL()] {
					seen[f.SQL()] = true
					out = append(out, f)
				}
				return false
			}
			return true
		})
	}
	for _, item := range core.Items {
		visit(item.Expr)
	}
	visit(core.Having)
	for _, o := range orderBy {
		visit(o.Expr)
	}
	return out
}

// columnRefs yields (alias, column) for every column reference in sel that
// decides covering: select items, WHERE, GROUP BY, HAVING, ORDER BY and
// join conditions, and the references of derived tables and subqueries,
// each resolved in its own scope. alias is the reference's qualifier, else
// its scope's sole base table, else "": an unqualified reference in a
// multi-table scope. A star (* or t.*) yields the column "*".
func columnRefs(sel *sql.Select) iter.Seq2[string, string] {
	return func(yield func(alias, column string) bool) {
		selectRefs(sel, yield)
	}
}

// selectRefs yields sel's references; it reports false once yield has.
func selectRefs(s *sql.Select, yield func(alias, column string) bool) bool {
	if s == nil {
		return true
	}
	if s.Compound != nil && !(selectRefs(s.Compound.Left, yield) && selectRefs(s.Compound.Right, yield)) {
		return false
	}
	sole := ""
	if c := s.Core; c != nil {
		sole = soleAlias(c.From)
		for _, item := range c.Items {
			if !exprRefs(item.Expr, sole, yield) {
				return false
			}
		}
		if !exprRefs(c.Where, sole, yield) {
			return false
		}
		for _, g := range c.GroupBy {
			if !exprRefs(g, sole, yield) {
				return false
			}
		}
		if !exprRefs(c.Having, sole, yield) || !fromRefs(c.From, yield) {
			return false
		}
	}
	for _, o := range s.OrderBy {
		if !exprRefs(o.Expr, sole, yield) {
			return false
		}
	}
	return true
}

// fromRefs yields the references of a FROM clause's join conditions and
// derived tables.
func fromRefs(r sql.TableRef, yield func(alias, column string) bool) bool {
	switch t := r.(type) {
	case *sql.JoinRef:
		return exprRefs(t.On, "", yield) && fromRefs(t.Left, yield) && fromRefs(t.Right, yield)
	case *sql.SubqueryRef:
		return selectRefs(t.Sub, yield)
	}
	return true
}

// exprRefs yields e's references, unqualified ones under sole, and those
// of the subqueries inside it.
func exprRefs(e sql.Expr, sole string, yield func(alias, column string) bool) bool {
	ok := true
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if !ok {
			return false
		}
		switch t := x.(type) {
		case *sql.ColumnRef:
			ok = yield(qualifier(t.Table, sole), t.Name)
		case *sql.Star:
			ok = yield(qualifier(t.Table, sole), "*")
		case *sql.ScalarSubquery:
			ok = selectRefs(t.Sub, yield)
		case *sql.InSubquery:
			ok = selectRefs(t.Sub, yield)
		case *sql.Exists:
			ok = selectRefs(t.Sub, yield)
		}
		return ok
	})
	return ok
}

// qualifier is table, or sole for an unqualified reference.
func qualifier(table, sole string) string {
	if table != "" {
		return table
	}
	return sole
}

// soleAlias is the alias of a FROM clause that is one base table, or "".
func soleAlias(r sql.TableRef) string {
	if bt, ok := r.(*sql.BaseTable); ok {
		if bt.Alias != "" {
			return bt.Alias
		}
		return bt.Name
	}
	return ""
}
