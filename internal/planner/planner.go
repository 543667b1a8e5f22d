package planner

import (
	"fmt"
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
	// NoIndexes disables index access paths entirely (a dialect that never
	// uses indexes for the workload, or a pre-index database state).
	NoIndexes bool
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
		refs := collectColumnRefs(t)
		return pl.planSelect(t, nil, refs)
	case *sql.Insert:
		op := NewOp(OpInsert)
		op.Table = t.Table
		op.Stmt = t
		op.EstRows = float64(len(t.Rows))
		op.TotalCost = float64(len(t.Rows)) * costSeqRow
		return op, nil
	case *sql.Update:
		child, err := pl.planMutationScan(t.Table, t.Where, stmt)
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
		child, err := pl.planMutationScan(t.Table, t.Where, stmt)
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

func (pl *Planner) planMutationScan(table string, where sql.Expr, stmt sql.Statement) (*PhysOp, error) {
	tbl := pl.Schema.Table(table)
	if tbl == nil {
		return nil, fmt.Errorf("planner: no such table %q", table)
	}
	refs := map[string]map[string]bool{}
	if where != nil {
		collectRefsFromExpr(where, refs, strings.ToLower(table))
	}
	scan := pl.planScan(tbl, table, where, refs)
	if err := pl.planSubqueriesIn(scan, []sql.Expr{where}, scan.Schema); err != nil {
		return nil, err
	}
	return scan, nil
}

// planSelect plans a full select. outer is the schema visible from
// enclosing queries (for correlated subqueries); refs maps alias →
// referenced column set for covering-index decisions.
func (pl *Planner) planSelect(sel *sql.Select, outer []OutCol, refs map[string]map[string]bool) (*PhysOp, error) {
	var op *PhysOp
	var err error
	if sel.Compound != nil {
		op, err = pl.planCompound(sel.Compound, outer, refs)
	} else {
		op, err = pl.planCore(sel.Core, outer, refs, sel.OrderBy)
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
			child := op.Children[0]
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
				if err := pl.planSubqueriesIn(op, extra, child.Schema); err != nil {
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

func (pl *Planner) planCompound(c *sql.Compound, outer []OutCol, refs map[string]map[string]bool) (*PhysOp, error) {
	left, err := pl.planSelect(c.Left, outer, refs)
	if err != nil {
		return nil, err
	}
	right, err := pl.planSelect(c.Right, outer, refs)
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

func (pl *Planner) planCore(core *sql.SelectCore, outer []OutCol, refs map[string]map[string]bool, orderBy []sql.OrderItem) (*PhysOp, error) {
	var input *PhysOp
	var conjuncts []sql.Expr
	if core.Where != nil {
		conjuncts = SplitConjuncts(core.Where)
	}
	if core.From != nil {
		var err error
		input, conjuncts, err = pl.planFrom(core.From, conjuncts, refs)
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
		if err := pl.planSubqueriesIn(f, []sql.Expr{f.Filter}, input.Schema); err != nil {
			return nil, err
		}
		input = f
	}

	// Aggregation.
	aggs := collectAggregates(core, orderBy)
	if len(core.GroupBy) > 0 || len(aggs) > 0 {
		agg := pl.planAggregate(core, aggs, input)
		if err := pl.planSubqueriesIn(agg, exprList(core.GroupBy), input.Schema); err != nil {
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
			if err := pl.planSubqueriesIn(hf, []sql.Expr{core.Having}, input.Schema); err != nil {
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
func (pl *Planner) planFrom(ref sql.TableRef, conjuncts []sql.Expr, refs map[string]map[string]bool) (*PhysOp, []sql.Expr, error) {
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
		scan := pl.planScanAliased(tbl, alias, JoinConjuncts(mine), refs)
		return scan, rest, nil
	case *sql.SubqueryRef:
		subRefs := collectColumnRefs(t.Sub)
		sub, err := pl.planSelect(t.Sub, nil, subRefs)
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
		left, rest, err := pl.planFrom(t.Left, conjuncts, refs)
		if err != nil {
			return nil, nil, err
		}
		right, rest, err := pl.planFrom(t.Right, rest, refs)
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

// planScanAliased plans the access path for one base table.
func (pl *Planner) planScanAliased(tbl *catalog.Table, alias string, filter sql.Expr, refs map[string]map[string]bool) *PhysOp {
	scan := pl.planScan(tbl, alias, filter, refs)
	return scan
}

func (pl *Planner) planScan(tbl *catalog.Table, alias string, filter sql.Expr, refs map[string]map[string]bool) *PhysOp {
	rows := pl.est.TableRows(tbl.Name)
	schema := make([]OutCol, len(tbl.Columns))
	for i, c := range tbl.Columns {
		schema[i] = OutCol{Table: alias, Name: c.Name}
	}
	width := len(tbl.Columns) * defaultWidth

	seq := NewOp(OpSeqScan)
	seq.Table = tbl.Name
	seq.Alias = alias
	seq.Filter = filter
	seq.Schema = schema
	seq.Width = width
	sel := pl.est.Selectivity(filter, tbl.Name)
	seq.EstRows = math.Max(minRows, rows*sel)
	seq.StartCost = 0
	seq.TotalCost = rows*costSeqRow + rows*costCPUTuple

	if pl.Opts.NoIndexes || filter == nil {
		if best := pl.coveringIndexOnly(tbl, alias, refs, rows); best != nil && filter == nil && pl.Opts.PreferIndexOnly {
			return best
		}
		return seq
	}
	match := pl.est.BestIndex(tbl, filter)
	if match == nil {
		return seq
	}
	matchRows := math.Max(minRows, rows*match.Selectivity)
	idxCost := math.Log2(rows+2)*costIndexStep + matchRows*costRandomRow
	ix := NewOp(OpIndexScan)
	ix.Table = tbl.Name
	ix.Alias = alias
	ix.Index = match.Index.Name
	ix.IndexCond = match.IndexCond
	ix.Filter = match.Residual
	ix.Schema = schema
	ix.Width = width
	resSel := pl.est.Selectivity(match.Residual, tbl.Name)
	ix.EstRows = math.Max(minRows, matchRows*resSel)
	ix.StartCost = math.Log2(rows + 2)
	ix.TotalCost = idxCost + matchRows*costCPUTuple
	// Covering index: all referenced columns are in the index.
	if covers(match.Index, neededColumns(tbl, alias, refs)) {
		ix.Kind = OpIndexOnlyScan
		ix.TotalCost = math.Log2(rows+2)*costIndexStep + matchRows*(costSeqRow+costCPUTuple)
	}
	if pl.Opts.PreferIndexProbes && condHasProbe(match.IndexCond) {
		return ix
	}
	if ix.TotalCost < seq.TotalCost {
		return ix
	}
	return seq
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

// neededColumns merges the alias's qualified references with unqualified
// ("*") references that name one of the table's columns.
func neededColumns(tbl *catalog.Table, alias string, refs map[string]map[string]bool) map[string]bool {
	need := map[string]bool{}
	for col := range refs[strings.ToLower(alias)] {
		need[col] = true
	}
	for col := range refs["*"] {
		if tbl.ColumnIndex(col) >= 0 {
			need[col] = true
		}
	}
	if len(need) == 0 {
		return nil
	}
	return need
}

// coveringIndexOnly builds an unconditional index-only scan when an index
// covers every referenced column of the alias.
func (pl *Planner) coveringIndexOnly(tbl *catalog.Table, alias string, refs map[string]map[string]bool, rows float64) *PhysOp {
	need := neededColumns(tbl, alias, refs)
	if need == nil {
		return nil
	}
	for _, ixDef := range tbl.Indexes {
		if !covers(ixDef, need) {
			continue
		}
		schema := make([]OutCol, len(tbl.Columns))
		for i, c := range tbl.Columns {
			schema[i] = OutCol{Table: alias, Name: c.Name}
		}
		ix := NewOp(OpIndexOnlyScan)
		ix.Table = tbl.Name
		ix.Alias = alias
		ix.Index = ixDef.Name
		ix.Schema = schema
		ix.Width = len(ixDef.Columns) * defaultWidth
		ix.EstRows = rows
		ix.TotalCost = rows * (costSeqRow*0.5 + costCPUTuple)
		return ix
	}
	return nil
}

func covers(ix *catalog.Index, need map[string]bool) bool {
	if need == nil || len(need) == 0 {
		return false
	}
	have := map[string]bool{}
	for _, c := range ix.Columns {
		have[strings.ToLower(c)] = true
	}
	for col := range need {
		if !have[col] {
			return false
		}
	}
	return true
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
	if err := pl.planSubqueriesIn(proj, exprs, input.Schema); err != nil {
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
func (pl *Planner) planSubqueriesIn(op *PhysOp, exprs []sql.Expr, scope []OutCol) error {
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
			refs := collectColumnRefs(sub)
			plan, perr := pl.planSelect(sub, scope, refs)
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

func exprList(es []sql.Expr) []sql.Expr { return es }

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

// collectColumnRefs maps alias → set of referenced column names for the
// whole select, used for covering-index decisions.
func collectColumnRefs(sel *sql.Select) map[string]map[string]bool {
	refs := map[string]map[string]bool{}
	var visitSelect func(s *sql.Select)
	var visitCore func(c *sql.SelectCore)
	add := func(e sql.Expr, defaultAlias string) {
		collectRefsFromExpr(e, refs, defaultAlias)
	}
	visitCore = func(c *sql.SelectCore) {
		if c == nil {
			return
		}
		// Determine the single-table default alias if the FROM clause has
		// exactly one base table.
		defaultAlias := soleAlias(c.From)
		for _, item := range c.Items {
			add(item.Expr, defaultAlias)
		}
		add(c.Where, defaultAlias)
		for _, g := range c.GroupBy {
			add(g, defaultAlias)
		}
		add(c.Having, defaultAlias)
		var visitFrom func(r sql.TableRef)
		visitFrom = func(r sql.TableRef) {
			switch t := r.(type) {
			case *sql.JoinRef:
				add(t.On, "")
				visitFrom(t.Left)
				visitFrom(t.Right)
			case *sql.SubqueryRef:
				visitSelect(t.Sub)
			}
		}
		visitFrom(c.From)
	}
	visitSelect = func(s *sql.Select) {
		if s == nil {
			return
		}
		if s.Compound != nil {
			visitSelect(s.Compound.Left)
			visitSelect(s.Compound.Right)
		}
		visitCore(s.Core)
		for _, o := range s.OrderBy {
			add(o.Expr, soleAliasOf(s))
		}
	}
	visitSelect(sel)
	return refs
}

func soleAliasOf(s *sql.Select) string {
	if s.Core != nil {
		return soleAlias(s.Core.From)
	}
	return ""
}

func soleAlias(r sql.TableRef) string {
	if bt, ok := r.(*sql.BaseTable); ok {
		if bt.Alias != "" {
			return strings.ToLower(bt.Alias)
		}
		return strings.ToLower(bt.Name)
	}
	return ""
}

func collectRefsFromExpr(e sql.Expr, refs map[string]map[string]bool, defaultAlias string) {
	sql.WalkExpr(e, func(x sql.Expr) bool {
		switch t := x.(type) {
		case *sql.ColumnRef:
			alias := strings.ToLower(t.Table)
			if alias == "" {
				alias = defaultAlias
			}
			if alias == "" {
				// Unqualified reference in a multi-table scope: record it
				// under the wildcard alias; covering-index checks attribute
				// it to every table that has such a column.
				alias = "*"
			}
			m := refs[alias]
			if m == nil {
				m = map[string]bool{}
				refs[alias] = m
			}
			m[strings.ToLower(t.Name)] = true
		case *sql.ScalarSubquery:
			inner := collectColumnRefs(t.Sub)
			mergeRefs(refs, inner)
		case *sql.InSubquery:
			inner := collectColumnRefs(t.Sub)
			mergeRefs(refs, inner)
		case *sql.Exists:
			inner := collectColumnRefs(t.Sub)
			mergeRefs(refs, inner)
		}
		return true
	})
}

func mergeRefs(dst, src map[string]map[string]bool) {
	for alias, cols := range src {
		m := dst[alias]
		if m == nil {
			m = map[string]bool{}
			dst[alias] = m
		}
		for c := range cols {
			m[c] = true
		}
	}
}
