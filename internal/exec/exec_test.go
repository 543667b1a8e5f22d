package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"uplan/internal/datum"
	"uplan/internal/planner"
	"uplan/internal/sql"
	"uplan/internal/storage"
)

// harness runs statements through parse → plan → execute.
type harness struct {
	t  *testing.T
	db *storage.DB
	ex *Executor
	pl *planner.Planner
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	db := storage.NewDB()
	return &harness{
		t:  t,
		db: db,
		ex: New(db),
		pl: planner.New(db.Schema, planner.Options{}),
	}
}

func (h *harness) exec(q string) *Result {
	h.t.Helper()
	res, err := h.tryExec(q)
	if err != nil {
		h.t.Fatalf("exec(%q): %v", q, err)
	}
	return res
}

func (h *harness) tryExec(q string) (*Result, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	plan, err := h.pl.Plan(stmt)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return h.ex.Run(plan)
}

func (h *harness) mustRows(q string, want [][]datum.D) {
	h.t.Helper()
	res := h.exec(q)
	if len(res.Rows) != len(want) {
		h.t.Fatalf("%q: got %d rows, want %d\nrows: %v", q, len(res.Rows), len(want), res.Rows)
	}
	for i := range want {
		if datum.CompareRows(res.Rows[i], want[i]) != 0 {
			h.t.Fatalf("%q row %d = %v, want %v", q, i, res.Rows[i], want[i])
		}
	}
}

func seedBasic(h *harness) {
	h.exec("CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 INT, c2 TEXT)")
	h.exec("INSERT INTO t0 (c0, c1, c2) VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a'), (4, NULL, 'c'), (5, 50, NULL)")
}

func TestSelectWhere(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.mustRows("SELECT c0 FROM t0 WHERE c1 > 15 ORDER BY c0",
		[][]datum.D{{datum.Int(2)}, {datum.Int(3)}, {datum.Int(5)}})
	// NULL never satisfies a comparison.
	h.mustRows("SELECT c0 FROM t0 WHERE c1 < 1000 ORDER BY c0",
		[][]datum.D{{datum.Int(1)}, {datum.Int(2)}, {datum.Int(3)}, {datum.Int(5)}})
	h.mustRows("SELECT c0 FROM t0 WHERE c1 IS NULL", [][]datum.D{{datum.Int(4)}})
	h.mustRows("SELECT c0 FROM t0 WHERE NOT (c1 > 15) ORDER BY c0",
		[][]datum.D{{datum.Int(1)}})
}

func TestProjectionAndExpressions(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.mustRows("SELECT c0 + c1 FROM t0 WHERE c0 = 2", [][]datum.D{{datum.Int(22)}})
	h.mustRows("SELECT c0 * 2.5 FROM t0 WHERE c0 = 2", [][]datum.D{{datum.Float(5)}})
	h.mustRows("SELECT c1 / 0 FROM t0 WHERE c0 = 1", [][]datum.D{{datum.Null()}})
	h.mustRows("SELECT CASE WHEN c1 > 15 THEN 'hi' ELSE 'lo' END FROM t0 WHERE c0 IN (1, 2) ORDER BY c0",
		[][]datum.D{{datum.Str("lo")}, {datum.Str("hi")}})
	h.mustRows("SELECT COALESCE(c1, -1) FROM t0 WHERE c0 = 4", [][]datum.D{{datum.Int(-1)}})
	h.mustRows("SELECT GREATEST(c0, c1), LEAST(c0, c1) FROM t0 WHERE c0 = 1",
		[][]datum.D{{datum.Int(10), datum.Int(1)}})
	h.mustRows("SELECT ABS(-3), LENGTH('abc'), UPPER('ab'), LOWER('AB')",
		[][]datum.D{{datum.Int(3), datum.Int(3), datum.Str("AB"), datum.Str("ab")}})
}

func TestJoins(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.exec("CREATE TABLE t1 (c0 INT, name TEXT)")
	h.exec("INSERT INTO t1 VALUES (1, 'one'), (2, 'two'), (7, 'seven')")
	h.mustRows("SELECT t0.c0, t1.name FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 ORDER BY t0.c0",
		[][]datum.D{{datum.Int(1), datum.Str("one")}, {datum.Int(2), datum.Str("two")}})
	// LEFT JOIN keeps unmatched rows.
	res := h.exec("SELECT t0.c0, t1.name FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 ORDER BY t0.c0")
	if len(res.Rows) != 5 {
		t.Fatalf("left join rows = %d, want 5", len(res.Rows))
	}
	if !res.Rows[2][1].IsNull() {
		t.Errorf("unmatched left row should carry NULL: %v", res.Rows[2])
	}
	// Cross join.
	res = h.exec("SELECT t0.c0 FROM t0, t1")
	if len(res.Rows) != 15 {
		t.Fatalf("cross join rows = %d, want 15", len(res.Rows))
	}
	// Comma join with WHERE equality becomes a join predicate.
	h.mustRows("SELECT t1.name FROM t0, t1 WHERE t0.c0 = t1.c0 AND t0.c1 = 20",
		[][]datum.D{{datum.Str("two")}})
}

func TestJoinAlgorithmsAgree(t *testing.T) {
	// All three join algorithms must produce identical results.
	for _, pref := range []planner.JoinPreference{
		planner.JoinPreferHash, planner.JoinPreferNL, planner.JoinPreferMerge,
	} {
		h := newHarness(t)
		h.pl = planner.New(h.db.Schema, planner.Options{Join: pref})
		seedBasic(h)
		h.exec("CREATE TABLE t1 (c0 INT, v FLOAT)")
		h.exec("INSERT INTO t1 VALUES (1, 1.5), (1, 2.5), (3, 3.5), (NULL, 9.9)")
		res := h.exec("SELECT t0.c0, t1.v FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 ORDER BY t0.c0, t1.v")
		if len(res.Rows) != 3 {
			t.Fatalf("pref %v: rows = %d, want 3: %v", pref, len(res.Rows), res.Rows)
		}
		if res.Rows[0][1].F != 1.5 || res.Rows[1][1].F != 2.5 || res.Rows[2][1].F != 3.5 {
			t.Errorf("pref %v: wrong rows %v", pref, res.Rows)
		}
	}
}

func TestAggregates(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.mustRows("SELECT COUNT(*) FROM t0", [][]datum.D{{datum.Int(5)}})
	h.mustRows("SELECT COUNT(c1) FROM t0", [][]datum.D{{datum.Int(4)}})
	h.mustRows("SELECT SUM(c1) FROM t0", [][]datum.D{{datum.Int(110)}})
	h.mustRows("SELECT AVG(c1) FROM t0", [][]datum.D{{datum.Float(27.5)}})
	h.mustRows("SELECT MIN(c1), MAX(c1) FROM t0",
		[][]datum.D{{datum.Int(10), datum.Int(50)}})
	h.mustRows("SELECT COUNT(DISTINCT c2) FROM t0", [][]datum.D{{datum.Int(3)}})
	// Empty input global aggregate.
	h.mustRows("SELECT COUNT(*), SUM(c1) FROM t0 WHERE c0 > 100",
		[][]datum.D{{datum.Int(0), datum.Null()}})
}

func TestGroupByHaving(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.mustRows("SELECT c2, COUNT(*) FROM t0 GROUP BY c2 HAVING COUNT(*) > 1 ORDER BY c2",
		[][]datum.D{{datum.Str("a"), datum.Int(2)}})
	// NULL forms its own group.
	res := h.exec("SELECT c2, COUNT(*) FROM t0 GROUP BY c2 ORDER BY c2")
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d, want 4 (incl. NULL group): %v", len(res.Rows), res.Rows)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("NULL group should sort first: %v", res.Rows)
	}
	// Aggregates in ORDER BY.
	h.mustRows("SELECT c2 FROM t0 WHERE c2 IS NOT NULL GROUP BY c2 ORDER BY COUNT(*) DESC, c2 LIMIT 1",
		[][]datum.D{{datum.Str("a")}})
}

func TestSortAggMatchesHashAgg(t *testing.T) {
	h := newHarness(t)
	h.pl = planner.New(h.db.Schema, planner.Options{Agg: planner.AggPreferSort})
	seedBasic(h)
	res := h.exec("SELECT c2, SUM(c1) FROM t0 GROUP BY c2 ORDER BY c2")
	if len(res.Rows) != 4 {
		t.Fatalf("sort agg groups = %d: %v", len(res.Rows), res.Rows)
	}
}

func TestDistinctLimitOffset(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.mustRows("SELECT DISTINCT c2 FROM t0 WHERE c2 IS NOT NULL ORDER BY c2",
		[][]datum.D{{datum.Str("a")}, {datum.Str("b")}, {datum.Str("c")}})
	h.mustRows("SELECT c0 FROM t0 ORDER BY c0 LIMIT 2",
		[][]datum.D{{datum.Int(1)}, {datum.Int(2)}})
	h.mustRows("SELECT c0 FROM t0 ORDER BY c0 LIMIT 2 OFFSET 3",
		[][]datum.D{{datum.Int(4)}, {datum.Int(5)}})
	h.mustRows("SELECT c0 FROM t0 ORDER BY c0 DESC LIMIT 1",
		[][]datum.D{{datum.Int(5)}})
}

func TestSetOperations(t *testing.T) {
	h := newHarness(t)
	h.exec("CREATE TABLE a (x INT)")
	h.exec("CREATE TABLE b (x INT)")
	h.exec("INSERT INTO a VALUES (1), (2), (2), (3)")
	h.exec("INSERT INTO b VALUES (2), (3), (4)")
	h.mustRows("SELECT x FROM a UNION SELECT x FROM b ORDER BY x",
		[][]datum.D{{datum.Int(1)}, {datum.Int(2)}, {datum.Int(3)}, {datum.Int(4)}})
	res := h.exec("SELECT x FROM a UNION ALL SELECT x FROM b")
	if len(res.Rows) != 7 {
		t.Fatalf("union all rows = %d", len(res.Rows))
	}
	h.mustRows("SELECT x FROM a INTERSECT SELECT x FROM b ORDER BY x",
		[][]datum.D{{datum.Int(2)}, {datum.Int(3)}})
	h.mustRows("SELECT x FROM a EXCEPT SELECT x FROM b ORDER BY x",
		[][]datum.D{{datum.Int(1)}})
}

func TestSubqueries(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.exec("CREATE TABLE t1 (c0 INT)")
	h.exec("INSERT INTO t1 VALUES (1), (3)")
	h.mustRows("SELECT c0 FROM t0 WHERE c0 IN (SELECT c0 FROM t1) ORDER BY c0",
		[][]datum.D{{datum.Int(1)}, {datum.Int(3)}})
	h.mustRows("SELECT c0 FROM t0 WHERE c0 NOT IN (SELECT c0 FROM t1) ORDER BY c0",
		[][]datum.D{{datum.Int(2)}, {datum.Int(4)}, {datum.Int(5)}})
	h.mustRows("SELECT c0 FROM t0 WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.c0 = t0.c0) ORDER BY c0",
		[][]datum.D{{datum.Int(1)}, {datum.Int(3)}})
	h.mustRows("SELECT c0 FROM t0 WHERE c1 = (SELECT MAX(c1) FROM t0)",
		[][]datum.D{{datum.Int(5)}})
	// Derived table.
	h.mustRows("SELECT d.s FROM (SELECT SUM(c1) AS s FROM t0) AS d",
		[][]datum.D{{datum.Int(110)}})
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	h := newHarness(t)
	h.exec("CREATE TABLE dept (id INT, budget INT)")
	h.exec("CREATE TABLE emp (dept_id INT, sal INT)")
	h.exec("INSERT INTO dept VALUES (1, 100), (2, 30)")
	h.exec("INSERT INTO emp VALUES (1, 40), (1, 50), (2, 10)")
	h.mustRows("SELECT id FROM dept WHERE budget > (SELECT SUM(sal) FROM emp WHERE emp.dept_id = dept.id) ORDER BY id",
		[][]datum.D{{datum.Int(1)}, {datum.Int(2)}})
	h.mustRows("SELECT id FROM dept WHERE budget < (SELECT SUM(sal) FROM emp WHERE emp.dept_id = dept.id)",
		[][]datum.D{})
}

func TestIndexScanCorrectness(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.exec("CREATE INDEX i1 ON t0 (c1)")
	h.db.AnalyzeAll()
	h.pl = planner.New(h.db.Schema, planner.Options{PreferIndexProbes: true})
	// Equality via index.
	h.mustRows("SELECT c0 FROM t0 WHERE c1 = 20", [][]datum.D{{datum.Int(2)}})
	// Range via index.
	h.mustRows("SELECT c0 FROM t0 WHERE c1 >= 20 AND c1 <= 30 ORDER BY c0",
		[][]datum.D{{datum.Int(2)}, {datum.Int(3)}})
	// Between via index.
	h.mustRows("SELECT c0 FROM t0 WHERE c1 BETWEEN 20 AND 30 ORDER BY c0",
		[][]datum.D{{datum.Int(2)}, {datum.Int(3)}})
	// Float probe against int column must not match (Listing 3 semantics).
	h.mustRows("SELECT c0 FROM t0 WHERE c1 IN (GREATEST(0.1, 0.2))", [][]datum.D{})
}

// TestIndexScanConjunctsOnLeadingColumn checks index scans whose
// condition has several conjuncts on the index's leading column. The
// probe honours only one of them, so the rows it fetches must be
// rechecked against the whole condition.
func TestIndexScanConjunctsOnLeadingColumn(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.exec("CREATE INDEX i1 ON t0 (c1)")
	h.db.AnalyzeAll()
	h.pl = planner.New(h.db.Schema, planner.Options{PreferIndexProbes: true})
	for _, tc := range []struct {
		pred string
		want []int64
	}{
		{"c1 = 10 AND c1 = 20", nil},
		{"c1 > 25 AND c1 > 5", []int64{3, 5}},
		{"c1 = 10 AND c1 > 15", nil},
		{"c1 > NULL AND c1 < 40", nil},
		{"c1 IN (10, 20) AND c1 = 20", []int64{2}},
		{"c1 BETWEEN 5 AND 25 AND c1 BETWEEN 15 AND 60", []int64{2}},
	} {
		q := "SELECT c0 FROM t0 WHERE " + tc.pred + " ORDER BY c0"
		want := make([][]datum.D, len(tc.want))
		for i, id := range tc.want {
			want[i] = []datum.D{datum.Int(id)}
		}
		h.mustRows(q, want)
	}
}

func TestListing3BugReproduction(t *testing.T) {
	// The paper's Listing 3: same query, wrong answer once an index exists
	// and the truncation quirk is active.
	h := newHarness(t)
	h.exec("CREATE TABLE t0 (c0 INT, c1 INT)")
	h.exec("INSERT INTO t0 (c1, c0) VALUES (0, 1)")
	q := "SELECT * FROM t0 WHERE t0.c1 IN (GREATEST(0.1, 0.2))"
	h.mustRows(q, [][]datum.D{}) // correct: empty

	h.exec("CREATE INDEX i0 ON t0 (c1)")
	h.db.AnalyzeAll()
	h.pl = planner.New(h.db.Schema, planner.Options{PreferIndexProbes: true})
	h.mustRows(q, [][]datum.D{}) // still correct without the quirk

	h.ex.Quirks.IndexProbeTruncatesFloats = true
	res := h.exec(q)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 || res.Rows[0][1].I != 0 {
		t.Fatalf("quirk should reproduce the bug row {1|0}, got %v", res.Rows)
	}
}

func TestDML(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.exec("UPDATE t0 SET c1 = c1 + 1 WHERE c0 <= 2")
	h.mustRows("SELECT c1 FROM t0 WHERE c0 <= 2 ORDER BY c0",
		[][]datum.D{{datum.Int(11)}, {datum.Int(21)}})
	h.exec("DELETE FROM t0 WHERE c0 = 3")
	h.mustRows("SELECT COUNT(*) FROM t0", [][]datum.D{{datum.Int(4)}})
	// INSERT with column reordering and NULL defaults.
	h.exec("CREATE TABLE t2 (a INT, b TEXT, c FLOAT)")
	h.exec("INSERT INTO t2 (c, a) VALUES (1.5, 7)")
	h.mustRows("SELECT a, b, c FROM t2",
		[][]datum.D{{datum.Int(7), datum.Null(), datum.Float(1.5)}})
}

func TestLikeAndBetween(t *testing.T) {
	h := newHarness(t)
	h.exec("CREATE TABLE s (v TEXT)")
	h.exec("INSERT INTO s VALUES ('apple'), ('banana'), ('grape'), (NULL)")
	h.mustRows("SELECT v FROM s WHERE v LIKE 'a%'", [][]datum.D{{datum.Str("apple")}})
	h.mustRows("SELECT v FROM s WHERE v LIKE '%ap%' ORDER BY v",
		[][]datum.D{{datum.Str("apple")}, {datum.Str("grape")}})
	h.mustRows("SELECT v FROM s WHERE v LIKE 'gr_pe'", [][]datum.D{{datum.Str("grape")}})
	h.mustRows("SELECT v FROM s WHERE v NOT LIKE '%a%'", [][]datum.D{})
}

func TestExplainAnalyzeStats(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	stmt := sql.MustParse("SELECT c2, COUNT(*) FROM t0 WHERE c0 > 1 GROUP BY c2")
	plan, err := h.pl.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ex.Run(plan); err != nil {
		t.Fatal(err)
	}
	if h.ex.Stats != nil {
		t.Fatalf("Run recorded stats for %d operators; only RunAnalyze should", len(h.ex.Stats))
	}
	if _, err := h.ex.RunAnalyze(plan); err != nil {
		t.Fatal(err)
	}
	var scanOp *planner.PhysOp
	plan.Walk(func(op *planner.PhysOp, _ int) {
		if op.Kind == planner.OpSeqScan || op.Kind == planner.OpIndexScan {
			scanOp = op
		}
	})
	if scanOp == nil {
		t.Fatal("no scan in plan")
	}
	st := h.ex.Stats[scanOp]
	if st == nil || st.ActualRows != 4 {
		t.Fatalf("scan stats = %+v, want 4 actual rows", st)
	}
}

func TestErrorPaths(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	cases := []string{
		"SELECT nosuch FROM t0",
		"SELECT * FROM missing",
		"SELECT c0 FROM t0 WHERE c0 = (SELECT c0 FROM t0)", // >1 row scalar
		"INSERT INTO t0 (zz) VALUES (1)",
		"UPDATE t0 SET zz = 1",
		"SELECT SUM(c0, c1) FROM t0",
		"SELECT c0 FROM t0 UNION SELECT c0, c1 FROM t0", // arity mismatch
	}
	for _, q := range cases {
		if _, err := h.tryExec(q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
}

func TestCompoundWithNulls(t *testing.T) {
	h := newHarness(t)
	h.exec("CREATE TABLE n (x INT)")
	h.exec("INSERT INTO n VALUES (NULL), (NULL), (1)")
	// UNION treats NULLs as equal (single NULL survives).
	res := h.exec("SELECT x FROM n UNION SELECT x FROM n")
	if len(res.Rows) != 2 {
		t.Fatalf("union with nulls = %d rows, want 2: %v", len(res.Rows), res.Rows)
	}
	h.mustRows("SELECT DISTINCT x FROM n ORDER BY x",
		[][]datum.D{{datum.Null()}, {datum.Int(1)}})
}

func TestQuirkLeftJoinAsInner(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.exec("CREATE TABLE t1 (c0 INT)")
	h.exec("INSERT INTO t1 VALUES (1)")
	q := "SELECT t0.c0 FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0"
	if got := len(h.exec(q).Rows); got != 5 {
		t.Fatalf("correct left join = %d rows", got)
	}
	h.ex.Quirks.LeftJoinAsInner = true
	if got := len(h.exec(q).Rows); got != 1 {
		t.Fatalf("quirked left join = %d rows, want 1", got)
	}
}

func TestQuirkLimitOffsetOrder(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	q := "SELECT c0 FROM t0 ORDER BY c0 LIMIT 2 OFFSET 1"
	h.mustRows(q, [][]datum.D{{datum.Int(2)}, {datum.Int(3)}})
	h.ex.Quirks.LimitAppliesOffsetAfter = true
	h.mustRows(q, [][]datum.D{{datum.Int(2)}})
}

// TestUnresolvedColumnSentinel pins the exported sentinel: an unresolved
// column reference must be matchable with errors.Is through however many
// layers wrap it, because the TLP/QPG campaigns use the sentinel (not
// message text) to separate generator noise from genuine crashes.
func TestUnresolvedColumnSentinel(t *testing.T) {
	h := newHarness(t)
	h.exec("CREATE TABLE t (c0 INT)")
	h.exec("INSERT INTO t VALUES (1)")
	_, err := h.tryExec("SELECT * FROM t WHERE nope = 1")
	if err == nil {
		t.Fatal("unknown column must error")
	}
	if !errors.Is(err, ErrUnresolvedColumn) {
		t.Errorf("error %q must match ErrUnresolvedColumn via errors.Is", err)
	}
	if !strings.Contains(err.Error(), "unresolved column nope") {
		t.Errorf("message regressed: %q", err)
	}
	if _, err := h.tryExec("SELECT c0 FROM t"); err != nil {
		t.Errorf("resolved column must not error: %v", err)
	}
}

// TestRoundBadArgumentsError is the regression test for the silently
// dropped AsFloat results in ROUND: a non-numeric value or digits
// argument must surface an execution error instead of silently rounding
// the zero value (bad digits used to round to 0 digits).
func TestRoundBadArgumentsError(t *testing.T) {
	h := newHarness(t)
	h.mustRows("SELECT ROUND(1.2345, 2)", [][]datum.D{{datum.Float(1.23)}})
	h.mustRows("SELECT ROUND(2.5)", [][]datum.D{{datum.Float(3)}})
	for _, q := range []string{
		"SELECT ROUND('abc')",
		"SELECT ROUND(1.234, 'xy')",
	} {
		if _, err := h.tryExec(q); err == nil || !strings.Contains(err.Error(), "ROUND") {
			t.Errorf("%q: want a ROUND argument error, got %v", q, err)
		}
	}
}

// TestIndexCondLeadingColumnInvariant pins the check that replaced the
// `_ = col` placeholder: an index-condition conjunct naming any column
// other than the index's leading column must fail loudly instead of
// probing the index with a value for the wrong column.
func TestIndexCondLeadingColumnInvariant(t *testing.T) {
	h := newHarness(t)
	seedBasic(h)
	h.exec("CREATE INDEX i1 ON t0 (c1)")
	tbl := h.db.Table("t0")

	mkOp := func(cond sql.Expr) *planner.PhysOp {
		op := planner.NewOp(planner.OpIndexScan)
		op.Table = "t0"
		op.Index = "i1"
		op.IndexCond = cond
		return op
	}
	// Control: a leading-column probe resolves row IDs.
	ids, err := h.ex.indexRowIDs(mkOp(&sql.Binary{
		Op: sql.OpEq,
		L:  &sql.ColumnRef{Name: "c1"},
		R:  &sql.Literal{Val: datum.Int(20)},
	}), tbl, nil)
	if err != nil || len(ids) != 1 {
		t.Fatalf("leading-column probe: ids=%v err=%v", ids, err)
	}
	// A condition on a non-index column must error, for every arm.
	conds := []sql.Expr{
		&sql.Binary{Op: sql.OpEq, L: &sql.ColumnRef{Name: "c0"}, R: &sql.Literal{Val: datum.Int(1)}},
		&sql.InList{X: &sql.ColumnRef{Name: "c0"}, List: []sql.Expr{&sql.Literal{Val: datum.Int(1)}}},
		&sql.Between{X: &sql.ColumnRef{Name: "c0"}, Lo: &sql.Literal{Val: datum.Int(1)}, Hi: &sql.Literal{Val: datum.Int(2)}},
	}
	for _, cond := range conds {
		if _, err := h.ex.indexRowIDs(mkOp(cond), tbl, nil); err == nil {
			t.Errorf("index condition %s on non-leading column should fail", cond.SQL())
		}
	}
}
