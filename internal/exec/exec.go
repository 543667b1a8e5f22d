package exec

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"uplan/internal/catalog"
	"uplan/internal/datum"
	"uplan/internal/planner"
	"uplan/internal/sql"
	"uplan/internal/storage"
)

// Quirks are injectable executor defects; each models a distinct class of
// optimizer/executor bug from the paper's Table V campaign (internal/bugs
// maps concrete bug IDs onto these switches). All false means a correct
// engine.
type Quirks struct {
	// NotIgnoresNull makes NOT over a NULL condition return TRUE.
	NotIgnoresNull bool
	// IndexProbeTruncatesFloats truncates float probe keys to integers
	// during index lookups without a recheck — the paper's Listing 3 bug.
	IndexProbeTruncatesFloats bool
	// IndexRangeSkipsBoundary excludes the inclusive lower boundary row of
	// index range scans.
	IndexRangeSkipsBoundary bool
	// HashJoinMissesCrossKind misses matches whose keys are numerically
	// equal but of different kinds (1 vs 1.0).
	HashJoinMissesCrossKind bool
	// LeftJoinAsInner drops unmatched outer rows from LEFT JOIN.
	LeftJoinAsInner bool
	// DistinctDropsNulls removes all-NULL rows entirely under DISTINCT.
	DistinctDropsNulls bool
	// ExceptKeepsDuplicates skips the dedup step of EXCEPT.
	ExceptKeepsDuplicates bool
	// LimitAppliesOffsetAfter applies OFFSET after LIMIT.
	LimitAppliesOffsetAfter bool
	// AggDropsNullGroups omits the NULL group from GROUP BY results.
	AggDropsNullGroups bool
	// UpdateUsesUpdatedRow evaluates later SET expressions against the
	// already-updated row (Halloween-style anomaly).
	UpdateUsesUpdatedRow bool
	// MergeJoinDropsLastGroup drops the final key group of a merge join.
	MergeJoinDropsLastGroup bool
}

// OpStats is the runtime record of one operator (EXPLAIN ANALYZE data).
type OpStats struct {
	ActualRows int
	Duration   time.Duration
	Loops      int
}

// Result is the materialized output of a statement.
//
// Results are read-only. Rows may alias rows held in storage or in
// another operator's output (scans return stored rows, and a SELECT *
// projection returns its input unchanged), so a caller must not write
// to them. Storage never writes a stored row in place: UPDATE stores a
// new row, so a Result taken before a later UPDATE, DELETE or INSERT
// keeps its values.
type Result struct {
	Columns []string
	Rows    [][]datum.D
}

// Executor runs physical plans against a storage database.
type Executor struct {
	DB     *storage.DB
	Quirks Quirks
	// Stats holds per-operator runtime statistics of the last RunAnalyze;
	// Run leaves it nil.
	Stats map[*planner.PhysOp]*OpStats

	subplans map[*sql.Select]*planner.PhysOp
	subCache map[*sql.Select][][]datum.D
}

// New returns an executor over the database.
func New(db *storage.DB) *Executor {
	return &Executor{DB: db}
}

// Run executes a plan and returns its result. It records no operator
// statistics; RunAnalyze does.
func (ex *Executor) Run(plan *planner.PhysOp) (*Result, error) {
	ex.Stats = nil
	return ex.start(plan)
}

// RunAnalyze executes a plan as Run does and fills Stats with every
// operator's actual rows, loops and self time (EXPLAIN ANALYZE data).
func (ex *Executor) RunAnalyze(plan *planner.PhysOp) (*Result, error) {
	ex.Stats = map[*planner.PhysOp]*OpStats{}
	return ex.start(plan)
}

func (ex *Executor) start(plan *planner.PhysOp) (*Result, error) {
	ex.subplans, ex.subCache = nil, nil
	plan.Walk(func(op *planner.PhysOp, _ int) {
		for _, sp := range op.Subplans {
			if ex.subplans == nil {
				ex.subplans = map[*sql.Select]*planner.PhysOp{}
			}
			ex.subplans[sp.Sel] = sp.Plan
		}
	})
	rows, err := ex.run(plan, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: plan.ColumnNames(), Rows: rows}, nil
}

func (ex *Executor) record(op *planner.PhysOp, rows int, d time.Duration) {
	st := ex.Stats[op]
	if st == nil {
		st = &OpStats{}
		ex.Stats[op] = st
	}
	st.ActualRows += rows
	st.Duration += d
	st.Loops++
}

func (ex *Executor) run(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	if ex.Stats == nil {
		return ex.runInner(op, outer)
	}
	start := time.Now()
	rows, err := ex.runInner(op, outer)
	if err != nil {
		return nil, err
	}
	// Subtract child time so Duration is (approximately) self time.
	d := time.Since(start)
	for _, c := range op.Children {
		if st := ex.Stats[c]; st != nil && st.Duration < d {
			d -= st.Duration
		}
	}
	ex.record(op, len(rows), d)
	return rows, nil
}

func (ex *Executor) runInner(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	switch op.Kind {
	case planner.OpValues:
		return [][]datum.D{{}}, nil
	case planner.OpSeqScan:
		return ex.runSeqScan(op, outer)
	case planner.OpIndexScan, planner.OpIndexOnlyScan:
		return ex.runIndexScan(op, outer)
	case planner.OpFilter:
		return ex.runFilter(op, outer)
	case planner.OpProject:
		return ex.runProject(op, outer)
	case planner.OpNLJoin:
		return ex.runNLJoin(op, outer)
	case planner.OpHashJoin:
		return ex.runHashJoin(op, outer)
	case planner.OpMergeJoin:
		return ex.runMergeJoin(op, outer)
	case planner.OpHashAgg, planner.OpSortAgg:
		return ex.runAggregate(op, outer)
	case planner.OpSort, planner.OpTopN:
		return ex.runSort(op, outer)
	case planner.OpLimit:
		return ex.runLimit(op, outer)
	case planner.OpDistinct:
		return ex.runDistinct(op, outer)
	case planner.OpUnionAll, planner.OpUnion, planner.OpIntersect, planner.OpExcept:
		return ex.runSetOp(op, outer)
	case planner.OpInsert:
		return ex.runInsert(op)
	case planner.OpUpdate:
		return ex.runUpdate(op, outer)
	case planner.OpDelete:
		return ex.runDelete(op, outer)
	case planner.OpCreateTable:
		return ex.runCreateTable(op)
	case planner.OpCreateIndex:
		return ex.runCreateIndex(op)
	}
	return nil, fmt.Errorf("exec: unsupported operator %s", op.Kind)
}

func (ex *Executor) runSeqScan(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	tbl := ex.DB.Table(op.Table)
	if tbl == nil {
		return nil, fmt.Errorf("exec: no such table %q", op.Table)
	}
	out := make([][]datum.D, 0, tbl.RowCount())
	var scanErr error
	sc := &scope{schema: op.Schema, parent: outer}
	tbl.Scan(func(_ int, row storage.Row) bool {
		sc.row = row
		tr, err := ex.EvalTruth(op.Filter, sc)
		if err != nil {
			scanErr = err
			return false
		}
		if tr == datum.True {
			out = append(out, row) // stored rows are never written in place
		}
		return true
	})
	return out, scanErr
}

func (ex *Executor) runIndexScan(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	tbl := ex.DB.Table(op.Table)
	if tbl == nil {
		return nil, fmt.Errorf("exec: no such table %q", op.Table)
	}
	ids, err := ex.indexRowIDs(op, tbl, outer)
	if err != nil {
		return nil, err
	}
	// The probe only narrows the scan: it honours one equality or IN
	// conjunct, the last bound on each side of a range, and skips NULL
	// bounds. Rechecking the index condition on every fetched row makes
	// the answer exact. The Listing 3 defect is a truncated probe that no
	// recheck follows, so that quirk keeps the probe's answer.
	recheck := op.IndexCond
	if ex.Quirks.IndexProbeTruncatesFloats {
		recheck = nil
	}
	out := make([][]datum.D, 0, len(ids))
	sc := &scope{schema: op.Schema, parent: outer}
	for _, id := range ids {
		row, ok := tbl.Get(id)
		if !ok {
			continue
		}
		sc.row = row
		tr, err := ex.EvalTruth(recheck, sc)
		if err == nil && tr == datum.True {
			tr, err = ex.EvalTruth(op.Filter, sc)
		}
		if err != nil {
			return nil, err
		}
		if tr == datum.True {
			out = append(out, row)
		}
	}
	return out, nil
}

// indexRowIDs evaluates the index condition into storage probes. With no
// index condition the whole index is scanned in key order.
func (ex *Executor) indexRowIDs(op *planner.PhysOp, tbl *storage.Table, outer *scope) ([]int, error) {
	ix := tbl.Index(op.Index)
	if ix == nil {
		return nil, fmt.Errorf("exec: no such index %q on %q", op.Index, op.Table)
	}
	if op.IndexCond == nil {
		var ids []int
		ix.ScanOrdered(func(_ []datum.D, rowID int) bool {
			ids = append(ids, rowID)
			return true
		})
		return ids, nil
	}
	constScope := &scope{parent: outer}
	probe := func(v datum.D) datum.D {
		if ex.Quirks.IndexProbeTruncatesFloats && v.K == datum.KFloat {
			return datum.Int(int64(v.F)) // injected defect: no recheck follows
		}
		return v
	}
	var ids []int
	seen := map[int]bool{}
	addID := func(id int) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	var lo, hi *datum.D
	loInc, hiInc := true, true
	haveRange := false
	for _, c := range planner.SplitConjuncts(op.IndexCond) {
		switch t := c.(type) {
		case *sql.Binary:
			col, valExpr, opKind, ok := normalizeComparison(t)
			if !ok {
				return nil, fmt.Errorf("exec: unsupported index condition %s", c.SQL())
			}
			// The probe key below is built for the index's leading column;
			// a conjunct targeting any other column would silently probe
			// with the wrong value. The planner only emits leading-column
			// conditions, so a mismatch here is a plan-corruption bug.
			if !strings.EqualFold(col, ix.Def.Columns[0]) {
				return nil, fmt.Errorf("exec: index condition on %q does not match leading column %q of index %q",
					col, ix.Def.Columns[0], op.Index)
			}
			v, err := ex.eval(valExpr, constScope)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue // NULL comparisons match nothing
			}
			v = probe(v)
			switch opKind {
			case sql.OpEq:
				for _, id := range ix.LookupEqual([]datum.D{v}) {
					addID(id)
				}
				return ids, nil
			case sql.OpGt:
				lo, loInc, haveRange = &v, false, true
			case sql.OpGe:
				lo, loInc, haveRange = &v, true, true
			case sql.OpLt:
				hi, hiInc, haveRange = &v, false, true
			case sql.OpLe:
				hi, hiInc, haveRange = &v, true, true
			}
		case *sql.InList:
			// Same leading-column invariant as the comparison arm above.
			if ref, ok := t.X.(*sql.ColumnRef); !ok || !strings.EqualFold(ref.Name, ix.Def.Columns[0]) {
				return nil, fmt.Errorf("exec: unsupported index condition %s", c.SQL())
			}
			for _, item := range t.List {
				v, err := ex.eval(item, constScope)
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					continue
				}
				v = probe(v)
				for _, id := range ix.LookupEqual([]datum.D{v}) {
					addID(id)
				}
			}
			return ids, nil
		case *sql.Between:
			if ref, ok := t.X.(*sql.ColumnRef); !ok || !strings.EqualFold(ref.Name, ix.Def.Columns[0]) {
				return nil, fmt.Errorf("exec: unsupported index condition %s", c.SQL())
			}
			loV, err := ex.eval(t.Lo, constScope)
			if err != nil {
				return nil, err
			}
			hiV, err := ex.eval(t.Hi, constScope)
			if err != nil {
				return nil, err
			}
			if loV.IsNull() || hiV.IsNull() {
				continue
			}
			loV, hiV = probe(loV), probe(hiV)
			lo, hi, loInc, hiInc, haveRange = &loV, &hiV, true, true, true
		default:
			return nil, fmt.Errorf("exec: unsupported index condition %s", c.SQL())
		}
	}
	if haveRange {
		rangeIDs := ix.Range(lo, hi, loInc, hiInc)
		if ex.Quirks.IndexRangeSkipsBoundary && len(rangeIDs) > 0 && lo != nil && loInc {
			rangeIDs = rangeIDs[1:] // injected defect
		}
		for _, id := range rangeIDs {
			addID(id)
		}
	}
	return ids, nil
}

// normalizeComparison rewrites "const op col" as "col op' const" and
// returns the column, the constant expression, and the operator.
func normalizeComparison(b *sql.Binary) (string, sql.Expr, sql.BinaryOp, bool) {
	if ref, ok := b.L.(*sql.ColumnRef); ok {
		switch b.Op {
		case sql.OpEq, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return ref.Name, b.R, b.Op, true
		}
	}
	if ref, ok := b.R.(*sql.ColumnRef); ok {
		var flip sql.BinaryOp
		switch b.Op {
		case sql.OpEq:
			flip = sql.OpEq
		case sql.OpLt:
			flip = sql.OpGt
		case sql.OpLe:
			flip = sql.OpGe
		case sql.OpGt:
			flip = sql.OpLt
		case sql.OpGe:
			flip = sql.OpLe
		default:
			return "", nil, "", false
		}
		return ref.Name, b.L, flip, true
	}
	return "", nil, "", false
}

func (ex *Executor) runFilter(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	in, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	out := make([][]datum.D, 0, len(in))
	sc := &scope{schema: op.Schema, parent: outer}
	for _, row := range in {
		sc.row = row
		tr, err := ex.EvalTruth(op.Filter, sc)
		if err != nil {
			return nil, err
		}
		if tr == datum.True {
			out = append(out, row)
		}
	}
	return out, nil
}

func (ex *Executor) runProject(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	in, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	if op.Identity {
		if in == nil {
			in = [][]datum.D{} // an evaluated projection's result is never nil
		}
		return in, nil
	}
	w := len(op.Projections)
	out := make([][]datum.D, len(in))
	slab := make([]datum.D, len(in)*w)
	sc := &scope{schema: op.Children[0].Schema, parent: outer}
	for r, row := range in {
		sc.row = row
		proj := slab[r*w : (r+1)*w : (r+1)*w]
		for i, e := range op.Projections {
			v, err := ex.eval(e, sc)
			if err != nil {
				return nil, err
			}
			proj[i] = v
		}
		out[r] = proj
	}
	return out, nil
}

func (ex *Executor) runNLJoin(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	left, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	right, err := ex.run(op.Children[1], outer)
	if err != nil {
		return nil, err
	}
	rightWidth := len(op.Children[1].Schema)
	var out [][]datum.D
	leftJoin := op.JoinType == sql.JoinLeft && !ex.Quirks.LeftJoinAsInner
	jc := newJoinCandidate(op, outer)
	for _, l := range left {
		matched := false
		for _, r := range right {
			hit, err := jc.test(ex, l, r)
			if err != nil {
				return nil, err
			}
			if hit {
				matched = true
				out = append(out, jc.keep())
			}
		}
		if leftJoin && !matched {
			out = append(out, padNulls(l, rightWidth))
		}
	}
	return out, nil
}

// joinCandidate evaluates join conditions over one reused row buffer:
// each (left, right) pair is assembled in the buffer, and only a match is
// copied out.
type joinCandidate struct {
	cond sql.Expr
	buf  []datum.D
	sc   scope
}

func newJoinCandidate(op *planner.PhysOp, outer *scope) *joinCandidate {
	return &joinCandidate{
		cond: op.JoinCond,
		buf:  make([]datum.D, 0, len(op.Schema)),
		sc:   scope{schema: op.Schema, parent: outer},
	}
}

// test assembles l+r in the buffer and evaluates the join condition.
func (jc *joinCandidate) test(ex *Executor, l, r []datum.D) (bool, error) {
	jc.buf = append(append(jc.buf[:0], l...), r...)
	jc.sc.row = jc.buf
	tr, err := ex.EvalTruth(jc.cond, &jc.sc)
	return tr == datum.True, err
}

// keep returns a copy of the last tested pair.
func (jc *joinCandidate) keep() []datum.D {
	return append([]datum.D(nil), jc.buf...)
}

func padNulls(l []datum.D, n int) []datum.D {
	row := append([]datum.D(nil), l...)
	for i := 0; i < n; i++ {
		row = append(row, datum.Null())
	}
	return row
}

// joinKey evaluates the hash keys over sc.row.
func (ex *Executor) joinKey(exprs []sql.Expr, sc *scope) (string, bool, error) {
	var b strings.Builder
	for _, e := range exprs {
		v, err := ex.eval(e, sc)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", false, nil // NULL keys never join
		}
		k := v.Key()
		if ex.Quirks.HashJoinMissesCrossKind {
			// Injected defect: key on the raw kind, so 1 and 1.0 no longer
			// collide.
			k = fmt.Sprintf("%d|%s", v.K, k)
		}
		fmt.Fprintf(&b, "%d:%s", len(k), k)
	}
	return b.String(), true, nil
}

func (ex *Executor) runHashJoin(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	left, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	right, err := ex.run(op.Children[1], outer)
	if err != nil {
		return nil, err
	}
	rschema := op.Children[1].Schema
	table := map[string][][]datum.D{}
	sc := &scope{schema: rschema, parent: outer}
	for _, r := range right {
		sc.row = r
		key, ok, err := ex.joinKey(op.HashKeysR, sc)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		table[key] = append(table[key], r)
	}
	var out [][]datum.D
	leftJoin := op.JoinType == sql.JoinLeft && !ex.Quirks.LeftJoinAsInner
	sc.schema = op.Children[0].Schema
	jc := newJoinCandidate(op, outer)
	for _, l := range left {
		matched := false
		sc.row = l
		key, ok, err := ex.joinKey(op.HashKeysL, sc)
		if err != nil {
			return nil, err
		}
		if ok {
			for _, r := range table[key] {
				hit, err := jc.test(ex, l, r)
				if err != nil {
					return nil, err
				}
				if hit {
					matched = true
					out = append(out, jc.keep())
				}
			}
		}
		if leftJoin && !matched {
			out = append(out, padNulls(l, len(rschema)))
		}
	}
	return out, nil
}

func (ex *Executor) runMergeJoin(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	left, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	right, err := ex.run(op.Children[1], outer)
	if err != nil {
		return nil, err
	}
	lschema := op.Children[0].Schema
	rschema := op.Children[1].Schema
	lk, err := ex.sortByKeys(left, lschema, op.HashKeysL, outer)
	if err != nil {
		return nil, err
	}
	rk, err := ex.sortByKeys(right, rschema, op.HashKeysR, outer)
	if err != nil {
		return nil, err
	}
	var out [][]datum.D
	matchedLeft := make([]bool, len(lk.rows))
	i, j := 0, 0
	var groups [][2][2]int // [leftStart,leftEnd], [rightStart,rightEnd]
	for i < len(lk.rows) && j < len(rk.rows) {
		if lk.null[i] {
			i++
			continue
		}
		if rk.null[j] {
			j++
			continue
		}
		c := datum.CompareRows(lk.keys[i], rk.keys[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			iEnd := i + 1
			for iEnd < len(lk.rows) && !lk.null[iEnd] && datum.CompareRows(lk.keys[iEnd], lk.keys[i]) == 0 {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < len(rk.rows) && !rk.null[jEnd] && datum.CompareRows(rk.keys[jEnd], rk.keys[j]) == 0 {
				jEnd++
			}
			groups = append(groups, [2][2]int{{i, iEnd}, {j, jEnd}})
			i, j = iEnd, jEnd
		}
	}
	if ex.Quirks.MergeJoinDropsLastGroup && len(groups) > 0 {
		groups = groups[:len(groups)-1] // injected defect
	}
	jc := newJoinCandidate(op, outer)
	for _, g := range groups {
		for li := g[0][0]; li < g[0][1]; li++ {
			for rj := g[1][0]; rj < g[1][1]; rj++ {
				hit, err := jc.test(ex, lk.rows[li], rk.rows[rj])
				if err != nil {
					return nil, err
				}
				if hit {
					matchedLeft[li] = true
					out = append(out, jc.keep())
				}
			}
		}
	}
	if op.JoinType == sql.JoinLeft && !ex.Quirks.LeftJoinAsInner {
		for li, row := range lk.rows {
			if !matchedLeft[li] {
				out = append(out, padNulls(row, len(rschema)))
			}
		}
	}
	return out, nil
}

type keyedRows struct {
	rows [][]datum.D
	keys [][]datum.D
	null []bool
}

func (ex *Executor) sortByKeys(rows [][]datum.D, schema []planner.OutCol, keys []sql.Expr, outer *scope) (*keyedRows, error) {
	kr := &keyedRows{rows: rows, keys: make([][]datum.D, len(rows)), null: make([]bool, len(rows))}
	w := len(keys)
	slab := make([]datum.D, len(rows)*w)
	sc := &scope{schema: schema, parent: outer}
	for i, row := range rows {
		sc.row = row
		ks := slab[i*w : (i+1)*w : (i+1)*w]
		for j, e := range keys {
			v, err := ex.eval(e, sc)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				kr.null[i] = true
			}
			ks[j] = v
		}
		kr.keys[i] = ks
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return datum.CompareRows(kr.keys[idx[a]], kr.keys[idx[b]]) < 0
	})
	sorted := &keyedRows{
		rows: make([][]datum.D, len(rows)),
		keys: make([][]datum.D, len(rows)),
		null: make([]bool, len(rows)),
	}
	for i, ix := range idx {
		sorted.rows[i] = kr.rows[ix]
		sorted.keys[i] = kr.keys[ix]
		sorted.null[i] = kr.null[ix]
	}
	return sorted, nil
}

// aggState accumulates one aggregate function for one group.
type aggState struct {
	count    int64
	sumF     float64
	sumI     int64
	anyFloat bool
	min, max datum.D
	distinct map[string]bool
	seenAny  bool
}

func (ex *Executor) runAggregate(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	in, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	child := op.Children[0]
	type group struct {
		keyVals []datum.D
		states  []*aggState
	}
	groups := map[string]*group{}
	var order []string
	sc := &scope{schema: child.Schema, parent: outer}
	for _, row := range in {
		sc.row = row
		keyVals := make([]datum.D, len(op.GroupBy))
		nullKey := false
		for i, g := range op.GroupBy {
			v, err := ex.eval(g, sc)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
			if v.IsNull() {
				nullKey = true
			}
		}
		if ex.Quirks.AggDropsNullGroups && nullKey {
			continue // injected defect
		}
		key := datum.RowKey(keyVals)
		grp := groups[key]
		if grp == nil {
			grp = &group{keyVals: keyVals, states: make([]*aggState, len(op.Aggs))}
			for i := range grp.states {
				grp.states[i] = &aggState{min: datum.Null(), max: datum.Null()}
			}
			groups[key] = grp
			order = append(order, key)
		}
		for i, agg := range op.Aggs {
			if err := ex.accumulate(grp.states[i], agg, sc); err != nil {
				return nil, err
			}
		}
	}
	// Global aggregate over empty input still yields one row.
	if len(op.GroupBy) == 0 && len(groups) == 0 {
		grp := &group{states: make([]*aggState, len(op.Aggs))}
		for i := range grp.states {
			grp.states[i] = &aggState{min: datum.Null(), max: datum.Null()}
		}
		groups[""] = grp
		order = append(order, "")
	}
	var out [][]datum.D
	for _, key := range order {
		grp := groups[key]
		row := append([]datum.D(nil), grp.keyVals...)
		for i, agg := range op.Aggs {
			row = append(row, finishAgg(grp.states[i], agg))
		}
		out = append(out, row)
	}
	if op.Kind == planner.OpSortAgg {
		sort.SliceStable(out, func(a, b int) bool {
			return datum.CompareRows(out[a][:len(op.GroupBy)], out[b][:len(op.GroupBy)]) < 0
		})
	}
	return out, nil
}

func (ex *Executor) accumulate(st *aggState, agg *sql.FuncCall, sc *scope) error {
	if agg.Star {
		st.count++
		st.seenAny = true
		return nil
	}
	if len(agg.Args) != 1 {
		return fmt.Errorf("exec: aggregate %s expects one argument", agg.Name)
	}
	v, err := ex.eval(agg.Args[0], sc)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if agg.Distinct {
		if st.distinct == nil {
			st.distinct = map[string]bool{}
		}
		if st.distinct[v.Key()] {
			return nil
		}
		st.distinct[v.Key()] = true
	}
	st.seenAny = true
	st.count++
	switch agg.Name {
	case "SUM", "AVG":
		if v.K == datum.KFloat {
			st.anyFloat = true
			st.sumF += v.F
		} else if v.K == datum.KInt {
			st.sumI += v.I
			st.sumF += float64(v.I)
		} else if f, ok := v.AsFloat(); ok {
			st.anyFloat = true
			st.sumF += f
		}
	case "MIN":
		if st.min.IsNull() || datum.SortCompare(v, st.min) < 0 {
			st.min = v
		}
	case "MAX":
		if st.max.IsNull() || datum.SortCompare(v, st.max) > 0 {
			st.max = v
		}
	}
	return nil
}

func finishAgg(st *aggState, agg *sql.FuncCall) datum.D {
	switch agg.Name {
	case "COUNT":
		return datum.Int(st.count)
	case "SUM":
		if !st.seenAny {
			return datum.Null()
		}
		if st.anyFloat {
			return datum.Float(st.sumF)
		}
		return datum.Int(st.sumI)
	case "AVG":
		if !st.seenAny || st.count == 0 {
			return datum.Null()
		}
		return datum.Float(st.sumF / float64(st.count))
	case "MIN":
		return st.min
	case "MAX":
		return st.max
	}
	return datum.Null()
}

func (ex *Executor) runSort(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	in, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	type keyed struct {
		row  []datum.D
		keys []datum.D
	}
	// Sort keys are evaluated against the child's full schema, which may
	// include hidden trailing columns appended for exactly this purpose.
	evalSchema := op.Children[0].Schema
	ks := make([]keyed, len(in))
	w := len(op.SortKeys)
	slab := make([]datum.D, len(in)*w)
	sc := &scope{schema: evalSchema, parent: outer}
	for i, row := range in {
		sc.row = row
		keys := slab[i*w : (i+1)*w : (i+1)*w]
		for j, k := range op.SortKeys {
			v, err := ex.eval(k.Expr, sc)
			if err != nil {
				return nil, err
			}
			keys[j] = v
		}
		ks[i] = keyed{row: row, keys: keys}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, k := range op.SortKeys {
			c := datum.SortCompare(ks[a].keys[j], ks[b].keys[j])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([][]datum.D, len(ks))
	visible := len(op.Schema)
	for i, k := range ks {
		row := k.row
		if op.HiddenTrailing > 0 && len(row) > visible {
			row = row[:visible]
		}
		out[i] = row
	}
	if op.Kind == planner.OpTopN {
		out = applyLimit(out, op.Limit, op.Offset, ex.Quirks.LimitAppliesOffsetAfter)
	}
	return out, nil
}

func applyLimit(rows [][]datum.D, limit, offset int64, offsetAfter bool) [][]datum.D {
	if offsetAfter {
		// Injected defect: limit first, then offset.
		if limit >= 0 && int64(len(rows)) > limit {
			rows = rows[:limit]
		}
		if offset > 0 {
			if offset > int64(len(rows)) {
				return nil
			}
			rows = rows[offset:]
		}
		return rows
	}
	if offset > 0 {
		if offset > int64(len(rows)) {
			return nil
		}
		rows = rows[offset:]
	}
	if limit >= 0 && int64(len(rows)) > limit {
		rows = rows[:limit]
	}
	return rows
}

func (ex *Executor) runLimit(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	in, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	return applyLimit(in, op.Limit, op.Offset, ex.Quirks.LimitAppliesOffsetAfter), nil
}

func (ex *Executor) runDistinct(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	in, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out [][]datum.D
	for _, row := range in {
		if ex.Quirks.DistinctDropsNulls {
			allNull := true
			for _, v := range row {
				if !v.IsNull() {
					allNull = false
					break
				}
			}
			if allNull {
				continue // injected defect
			}
		}
		key := datum.RowKey(row)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, row)
	}
	return out, nil
}

func (ex *Executor) runSetOp(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	left, err := ex.run(op.Children[0], outer)
	if err != nil {
		return nil, err
	}
	right, err := ex.run(op.Children[1], outer)
	if err != nil {
		return nil, err
	}
	switch op.Kind {
	case planner.OpUnionAll:
		return append(left, right...), nil
	case planner.OpUnion:
		seen := map[string]bool{}
		var out [][]datum.D
		for _, row := range append(left, right...) {
			key := datum.RowKey(row)
			if !seen[key] {
				seen[key] = true
				out = append(out, row)
			}
		}
		return out, nil
	case planner.OpIntersect:
		rightKeys := map[string]bool{}
		for _, row := range right {
			rightKeys[datum.RowKey(row)] = true
		}
		seen := map[string]bool{}
		var out [][]datum.D
		for _, row := range left {
			key := datum.RowKey(row)
			if rightKeys[key] && !seen[key] {
				seen[key] = true
				out = append(out, row)
			}
		}
		return out, nil
	case planner.OpExcept:
		rightKeys := map[string]bool{}
		for _, row := range right {
			rightKeys[datum.RowKey(row)] = true
		}
		seen := map[string]bool{}
		var out [][]datum.D
		for _, row := range left {
			key := datum.RowKey(row)
			if rightKeys[key] {
				continue
			}
			if !ex.Quirks.ExceptKeepsDuplicates {
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			out = append(out, row)
		}
		return out, nil
	}
	return nil, fmt.Errorf("exec: unknown set operation %s", op.Kind)
}

func (ex *Executor) runSubquery(sub *sql.Select, sc *scope) ([][]datum.D, error) {
	if cached, ok := ex.subCache[sub]; ok {
		return cached, nil
	}
	plan, ok := ex.subplans[sub]
	if !ok {
		return nil, fmt.Errorf("exec: no plan for subquery %q", sub.SQL())
	}
	touched := false
	probe := &scope{touched: &touched}
	if sc != nil {
		probe.schema = sc.schema
		probe.row = sc.row
		probe.parent = sc.parent
	}
	rows, err := ex.run(plan, probe)
	if err != nil {
		return nil, err
	}
	if !touched {
		// Uncorrelated subquery: safe to cache for the rest of the run.
		if ex.subCache == nil {
			ex.subCache = map[*sql.Select][][]datum.D{}
		}
		ex.subCache[sub] = rows
	}
	return rows, nil
}

// --------------------------------------------------------------------- DML

func (ex *Executor) runInsert(op *planner.PhysOp) ([][]datum.D, error) {
	ins := op.Stmt.(*sql.Insert)
	tbl := ex.DB.Table(ins.Table)
	if tbl == nil {
		return nil, fmt.Errorf("exec: no such table %q", ins.Table)
	}
	def := tbl.Def
	colIdx := make([]int, 0, len(ins.Columns))
	if len(ins.Columns) == 0 {
		for i := range def.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range ins.Columns {
			i := def.ColumnIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("exec: no column %q in %q", c, ins.Table)
			}
			colIdx = append(colIdx, i)
		}
	}
	sc := &scope{}
	n := 0
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(colIdx) {
			return nil, fmt.Errorf("exec: INSERT row has %d values, want %d", len(exprRow), len(colIdx))
		}
		row := make(storage.Row, len(def.Columns))
		for i := range row {
			row[i] = datum.Null()
		}
		for i, e := range exprRow {
			v, err := ex.eval(e, sc)
			if err != nil {
				return nil, err
			}
			row[colIdx[i]] = coerceToColumn(v, def.Columns[colIdx[i]].Type)
		}
		if _, err := tbl.Insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return [][]datum.D{{datum.Int(int64(n))}}, nil
}

// coerceToColumn applies lightweight implicit casts on insert (int→float,
// numeric→text) as the studied engines do.
func coerceToColumn(v datum.D, t catalog.ColType) datum.D {
	if v.IsNull() {
		return v
	}
	switch t {
	case catalog.TFloat:
		if v.K == datum.KInt {
			return datum.Float(float64(v.I))
		}
	case catalog.TInt:
		if v.K == datum.KFloat && v.F == float64(int64(v.F)) {
			return datum.Int(int64(v.F))
		}
	case catalog.TText:
		if v.K != datum.KString {
			return datum.Str(strings.Trim(v.String(), "'"))
		}
	}
	return v
}

func (ex *Executor) runUpdate(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	upd := op.Stmt.(*sql.Update)
	tbl := ex.DB.Table(upd.Table)
	if tbl == nil {
		return nil, fmt.Errorf("exec: no such table %q", upd.Table)
	}
	schema := op.Children[0].Schema
	// Collect matching row IDs first (avoid Halloween problem), unless the
	// injected defect is active.
	var ids []int
	var scanErr error
	sc := &scope{schema: schema, parent: outer}
	tbl.Scan(func(id int, row storage.Row) bool {
		sc.row = row
		tr, err := ex.EvalTruth(upd.Where, sc)
		if err != nil {
			scanErr = err
			return false
		}
		if tr == datum.True {
			ids = append(ids, id)
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	n := 0
	for _, id := range ids {
		row, ok := tbl.Get(id)
		if !ok {
			continue
		}
		newRow := append(storage.Row(nil), row...)
		for _, set := range upd.Sets {
			ci := tbl.Def.ColumnIndex(set.Column)
			if ci < 0 {
				return nil, fmt.Errorf("exec: no column %q in %q", set.Column, upd.Table)
			}
			sc.row = row
			if ex.Quirks.UpdateUsesUpdatedRow {
				sc.row = newRow // injected defect: later SETs see earlier SETs
			}
			v, err := ex.eval(set.Value, sc)
			if err != nil {
				return nil, err
			}
			newRow[ci] = coerceToColumn(v, tbl.Def.Columns[ci].Type)
		}
		if err := tbl.Update(id, newRow); err != nil {
			return nil, err
		}
		n++
	}
	return [][]datum.D{{datum.Int(int64(n))}}, nil
}

func (ex *Executor) runDelete(op *planner.PhysOp, outer *scope) ([][]datum.D, error) {
	del := op.Stmt.(*sql.Delete)
	tbl := ex.DB.Table(del.Table)
	if tbl == nil {
		return nil, fmt.Errorf("exec: no such table %q", del.Table)
	}
	schema := op.Children[0].Schema
	var ids []int
	var scanErr error
	sc := &scope{schema: schema, parent: outer}
	tbl.Scan(func(id int, row storage.Row) bool {
		sc.row = row
		tr, err := ex.EvalTruth(del.Where, sc)
		if err != nil {
			scanErr = err
			return false
		}
		if tr == datum.True {
			ids = append(ids, id)
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	for _, id := range ids {
		tbl.Delete(id)
	}
	return [][]datum.D{{datum.Int(int64(len(ids)))}}, nil
}

func (ex *Executor) runCreateTable(op *planner.PhysOp) ([][]datum.D, error) {
	ct := op.Stmt.(*sql.CreateTable)
	def := &catalog.Table{Name: ct.Name}
	for _, c := range ct.Columns {
		typ, err := catalog.ParseColType(c.Type)
		if err != nil {
			return nil, err
		}
		def.Columns = append(def.Columns, catalog.Column{
			Name: c.Name, Type: typ, NotNull: c.NotNull, PrimaryKey: c.PrimaryKey,
		})
	}
	if _, err := ex.DB.CreateTable(def); err != nil {
		return nil, err
	}
	return [][]datum.D{{datum.Int(0)}}, nil
}

func (ex *Executor) runCreateIndex(op *planner.PhysOp) ([][]datum.D, error) {
	ci := op.Stmt.(*sql.CreateIndex)
	def := &catalog.Index{
		Name: ci.Name, Table: ci.Table, Unique: ci.Unique,
		Columns: append([]string(nil), ci.Columns...),
	}
	if _, err := ex.DB.CreateIndex(def); err != nil {
		return nil, err
	}
	return [][]datum.D{{datum.Int(0)}}, nil
}
