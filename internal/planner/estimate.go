package planner

import (
	"uplan/internal/catalog"
	"uplan/internal/datum"
	"uplan/internal/sql"
)

// Cost model constants, loosely following the classic disk/CPU conventions
// real optimizers document (sequential page cost 1.0, random page ~4x,
// per-tuple CPU a fraction of a page read).
const (
	costSeqRow    = 1.0  // read one row sequentially
	costRandomRow = 4.0  // fetch one row through an index
	costIndexStep = 0.5  // descend/advance one index entry
	costCPUTuple  = 0.01 // evaluate predicates on one row
	costHashBuild = 1.5  // insert one row into a hash table
	costSortRow   = 2.0  // comparison-sort amortized per row (× log n)
	costStartup   = 0.1  // operator fixed startup
	defaultWidth  = 8    // bytes per column estimate
	minRows       = 1.0  // estimates never drop below one row
)

// Estimator computes cardinalities and costs from catalog statistics. The
// Quirks hooks let the bug-injection layer perturb estimates the way the
// CERT experiment requires.
type Estimator struct {
	Schema *catalog.Schema
	Quirks EstimatorQuirks
}

// EstimatorQuirks are injectable estimation defects (see internal/bugs).
type EstimatorQuirks struct {
	// PredicateInflatesEstimate makes adding an equality predicate
	// *increase* the estimate by the given factor (>1), a classic CERT
	// finding where a more restrictive query gets a larger estimated
	// cardinality.
	PredicateInflatesEstimate float64
	// IgnoreHistogram disables histogram-based range selectivity, falling
	// back to the fixed default; widens estimation errors on skewed data.
	IgnoreHistogram bool
	// RangeSelectivityFloor clamps range selectivity from below; a large
	// floor (e.g. 0.9) models an engine that barely reduces row estimates
	// for range predicates.
	RangeSelectivityFloor float64
}

// TableRows returns the estimated row count of a base table.
func (e *Estimator) TableRows(table string) float64 {
	st := e.Schema.Stats(table)
	if st.RowCount <= 0 {
		return minRows
	}
	return float64(st.RowCount)
}

// Selectivity estimates the fraction of rows satisfying pred over the given
// table alias scope. Unknown predicate shapes use the standard defaults.
func (e *Estimator) Selectivity(pred sql.Expr, table string) float64 {
	if pred == nil {
		return 1
	}
	sel := e.selectivity(pred, table)
	if sel < 0 {
		sel = 0
	}
	// A correct estimator never exceeds selectivity 1; the inflation quirks
	// deliberately escape the clamp so CERT can observe the defect.
	if sel > 1 && e.Quirks.PredicateInflatesEstimate <= 1 &&
		e.Quirks.RangeSelectivityFloor <= 1 {
		sel = 1
	}
	return sel
}

func (e *Estimator) selectivity(pred sql.Expr, table string) float64 {
	switch t := pred.(type) {
	case *sql.Binary:
		switch t.Op {
		case sql.OpAnd:
			return e.selectivity(t.L, table) * e.selectivity(t.R, table)
		case sql.OpOr:
			a := e.selectivity(t.L, table)
			b := e.selectivity(t.R, table)
			return a + b - a*b
		case sql.OpEq:
			if col, val, ok := colConstant(t.L, t.R); ok {
				s := e.eqSelectivity(table, col, val)
				if e.Quirks.PredicateInflatesEstimate > 1 {
					s *= e.Quirks.PredicateInflatesEstimate
				}
				return s
			}
			return catalog.DefaultEqSelectivity() * 2
		case sql.OpNe:
			if col, val, ok := colConstant(t.L, t.R); ok {
				return 1 - e.eqSelectivity(table, col, val)
			}
			return 1 - catalog.DefaultEqSelectivity()
		case sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return e.rangeSelectivity(t, table)
		}
		return 0.5
	case *sql.Unary:
		if t.Op == "NOT" {
			return 1 - e.selectivity(t.X, table)
		}
		return 0.5
	case *sql.IsNull:
		s := e.nullFraction(pred, table)
		if t.Neg {
			return 1 - s
		}
		return s
	case *sql.InList:
		var s float64
		for _, item := range t.List {
			if col, val, ok := colConstant(t.X, item); ok {
				s += e.eqSelectivity(table, col, val)
			} else {
				s += catalog.DefaultEqSelectivity()
			}
		}
		if s > 1 {
			s = 1
		}
		if t.Neg {
			return 1 - s
		}
		return s
	case *sql.Between:
		// Model as two range predicates.
		lo := &sql.Binary{Op: sql.OpGe, L: t.X, R: t.Lo}
		hi := &sql.Binary{Op: sql.OpLe, L: t.X, R: t.Hi}
		s := e.rangeSelectivity(lo, table) * e.rangeSelectivity(hi, table)
		if t.Neg {
			return 1 - s
		}
		return s
	case *sql.Like:
		if t.Neg {
			return 0.9
		}
		return 0.1
	case *sql.Exists:
		return 0.5
	case *sql.InSubquery:
		if t.Neg {
			return 0.6
		}
		return 0.4
	case *sql.Literal:
		switch datum.TruthOf(t.Val) {
		case datum.True:
			return 1
		case datum.False:
			return 0
		}
		return 0
	}
	return 0.5
}

// colConstant matches "col op const" (either side) and returns the column
// name and constant value.
func colConstant(l, r sql.Expr) (string, datum.D, bool) {
	if c, ok := l.(*sql.ColumnRef); ok {
		if lit, ok := r.(*sql.Literal); ok {
			return c.Name, lit.Val, true
		}
	}
	if c, ok := r.(*sql.ColumnRef); ok {
		if lit, ok := l.(*sql.Literal); ok {
			return c.Name, lit.Val, true
		}
	}
	return "", datum.Null(), false
}

func (e *Estimator) eqSelectivity(table, col string, _ datum.D) float64 {
	cs := e.Schema.Stats(table).Column(col)
	return cs.SelectivityEQ()
}

func (e *Estimator) nullFraction(pred sql.Expr, table string) float64 {
	isn, ok := pred.(*sql.IsNull)
	if !ok {
		return 0.1
	}
	col, okc := isn.X.(*sql.ColumnRef)
	if !okc {
		return 0.1
	}
	st := e.Schema.Stats(table)
	cs := st.Column(col.Name)
	if cs == nil || st.RowCount == 0 {
		return 0.1
	}
	return float64(cs.NullCount) / float64(st.RowCount)
}

func (e *Estimator) rangeSelectivity(b *sql.Binary, table string) float64 {
	col, val, ok := colConstant(b.L, b.R)
	if !ok {
		return catalog.DefaultIneqSelectivity()
	}
	// Normalize to "col op val" direction.
	op := b.Op
	if _, isCol := b.R.(*sql.ColumnRef); isCol {
		switch op {
		case sql.OpLt:
			op = sql.OpGt
		case sql.OpLe:
			op = sql.OpGe
		case sql.OpGt:
			op = sql.OpLt
		case sql.OpGe:
			op = sql.OpLe
		}
	}
	cs := e.Schema.Stats(table).Column(col)
	var sel float64
	if cs == nil || cs.Histogram == nil || e.Quirks.IgnoreHistogram {
		sel = catalog.DefaultIneqSelectivity()
	} else {
		lt := cs.Histogram.SelectivityLT(val)
		switch op {
		case sql.OpLt, sql.OpLe:
			sel = lt
		default:
			sel = 1 - lt
		}
	}
	if f := e.Quirks.RangeSelectivityFloor; f > 0 && sel < f {
		sel = f
	}
	return sel
}

// IndexMatch describes how much of a filter an index can absorb.
type IndexMatch struct {
	Index     *catalog.Index
	IndexCond sql.Expr // conjuncts the index serves
	Residual  sql.Expr // conjuncts remaining as a filter
	// Selectivity of the index condition alone.
	Selectivity float64
}

// BestIndex finds the most selective usable index for the conjunctive
// predicate on a table, or nil. An index is usable when a conjunct compares
// its leading column to a constant with =, <, <=, >, >=, or IN-list.
func (e *Estimator) BestIndex(tbl *catalog.Table, pred sql.Expr) *IndexMatch {
	if pred == nil || tbl == nil || len(tbl.Indexes) == 0 {
		return nil
	}
	conjuncts := SplitConjuncts(pred)
	var best *IndexMatch
	for _, ix := range tbl.Indexes {
		if len(ix.Columns) == 0 {
			continue
		}
		lead := ix.Columns[0]
		var served []sql.Expr
		var residual []sql.Expr
		for _, c := range conjuncts {
			if predicateTargets(c, lead) {
				served = append(served, c)
			} else {
				residual = append(residual, c)
			}
		}
		if len(served) == 0 {
			continue
		}
		sel := 1.0
		for _, c := range served {
			sel *= e.Selectivity(c, tbl.Name)
		}
		m := &IndexMatch{
			Index:       ix,
			IndexCond:   JoinConjuncts(served),
			Residual:    JoinConjuncts(residual),
			Selectivity: sel,
		}
		if best == nil || m.Selectivity < best.Selectivity {
			best = m
		}
	}
	return best
}

// predicateTargets reports whether the conjunct is an indexable comparison
// on the named column.
func predicateTargets(c sql.Expr, col string) bool {
	switch t := c.(type) {
	case *sql.Binary:
		switch t.Op {
		case sql.OpEq, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			name, _, ok := colConstant(t.L, t.R)
			return ok && equalFold(name, col)
		}
	case *sql.InList:
		if ref, ok := t.X.(*sql.ColumnRef); ok && !t.Neg && equalFold(ref.Name, col) {
			for _, item := range t.List {
				if _, isLit := item.(*sql.Literal); !isLit {
					if _, isFn := item.(*sql.FuncCall); !isFn {
						return false
					}
				}
			}
			return true
		}
	case *sql.Between:
		if ref, ok := t.X.(*sql.ColumnRef); ok && !t.Neg && equalFold(ref.Name, col) {
			_, lok := t.Lo.(*sql.Literal)
			_, hok := t.Hi.(*sql.Literal)
			return lok && hok
		}
	}
	return false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// SplitConjuncts flattens nested ANDs into a conjunct list.
func SplitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.Binary); ok && b.Op == sql.OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// JoinConjuncts rebuilds an AND tree from a conjunct list (nil for empty).
func JoinConjuncts(cs []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = &sql.Binary{Op: sql.OpAnd, L: out, R: c}
		}
	}
	return out
}
