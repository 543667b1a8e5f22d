package planner

import (
	"strings"
	"testing"

	"uplan/internal/catalog"
	"uplan/internal/datum"
	"uplan/internal/sql"
)

func testSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema()
	t0 := &catalog.Table{Name: "t0", Columns: []catalog.Column{
		{Name: "c0", Type: catalog.TInt, PrimaryKey: true},
		{Name: "c1", Type: catalog.TInt},
	}}
	t0.Indexes = append(t0.Indexes, &catalog.Index{
		Name: "t0_pkey", Table: "t0", Columns: []string{"c0"}, Unique: true, Primary: true,
	})
	if err := s.AddTable(t0); err != nil {
		t.Fatal(err)
	}
	t1 := &catalog.Table{Name: "t1", Columns: []catalog.Column{
		{Name: "c0", Type: catalog.TInt},
		{Name: "v", Type: catalog.TText},
	}}
	if err := s.AddTable(t1); err != nil {
		t.Fatal(err)
	}
	s.SetStats("t0", &catalog.TableStats{RowCount: 100000, Columns: map[string]*catalog.ColumnStats{
		"c0": {Distinct: 100000, Min: datum.Int(1), Max: datum.Int(100000)},
		"c1": {Distinct: 100},
	}})
	s.SetStats("t1", &catalog.TableStats{RowCount: 50, Columns: map[string]*catalog.ColumnStats{
		"c0": {Distinct: 50},
	}})
	return s
}

func mustPlan(t *testing.T, pl *Planner, q string) *PhysOp {
	t.Helper()
	plan, err := pl.Plan(sql.MustParse(q))
	if err != nil {
		t.Fatalf("Plan(%q): %v", q, err)
	}
	return plan
}

func kinds(p *PhysOp) []OpKind {
	var out []OpKind
	p.Walk(func(op *PhysOp, _ int) { out = append(out, op.Kind) })
	return out
}

func hasKind(p *PhysOp, k OpKind) bool {
	for _, kk := range kinds(p) {
		if kk == k {
			return true
		}
	}
	return false
}

func TestPlanShapeSimpleScan(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT c0 FROM t0")
	if p.Kind != OpProject || p.Children[0].Kind != OpSeqScan {
		t.Fatalf("plan:\n%s", p)
	}
	if p.EstRows != 100000 {
		t.Errorf("EstRows = %v", p.EstRows)
	}
}

func TestPlanPushdownAndIndexSelection(t *testing.T) {
	pl := New(testSchema(t), Options{})
	// Selective predicate on the indexed PK: index scan wins on a big table.
	p := mustPlan(t, pl, "SELECT c1 FROM t0 WHERE c0 = 42")
	scan := p.Children[0]
	if scan.Kind != OpIndexScan {
		t.Fatalf("expected IndexScan, got:\n%s", p)
	}
	if scan.Index != "t0_pkey" || scan.IndexCond == nil {
		t.Errorf("index scan fields: %+v", scan)
	}
	// Unindexed column keeps the filter in a seq scan.
	p = mustPlan(t, pl, "SELECT c1 FROM t0 WHERE c1 = 42")
	scan = p.Children[0]
	if scan.Kind != OpSeqScan || scan.Filter == nil {
		t.Fatalf("expected filtered SeqScan, got:\n%s", p)
	}
}

func TestPlanEstimatesDecreaseWithPredicates(t *testing.T) {
	pl := New(testSchema(t), Options{})
	base := mustPlan(t, pl, "SELECT c0 FROM t0")
	filtered := mustPlan(t, pl, "SELECT c0 FROM t0 WHERE c1 = 5")
	if filtered.EstRows >= base.EstRows {
		t.Errorf("predicate should reduce estimate: %v >= %v",
			filtered.EstRows, base.EstRows)
	}
	// CERT's core monotonicity property.
	more := mustPlan(t, pl, "SELECT c0 FROM t0 WHERE c1 = 5 AND c0 < 100")
	if more.EstRows > filtered.EstRows {
		t.Errorf("extra conjunct must not increase estimate: %v > %v",
			more.EstRows, filtered.EstRows)
	}
}

func TestPlanQuirkInflatesEstimate(t *testing.T) {
	pl := New(testSchema(t), Options{Quirks: EstimatorQuirks{PredicateInflatesEstimate: 500000}})
	base := mustPlan(t, pl, "SELECT c0 FROM t0")
	filtered := mustPlan(t, pl, "SELECT c0 FROM t0 WHERE c1 = 5")
	if filtered.EstRows <= base.EstRows {
		t.Errorf("quirk should inflate the filtered estimate: %v <= %v",
			filtered.EstRows, base.EstRows)
	}
}

func TestPlanJoinSelection(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT t0.c0 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0")
	if !hasKind(p, OpHashJoin) {
		t.Fatalf("expected hash join on large tables:\n%s", p)
	}
	join := p.Children[0]
	if len(join.HashKeysL) != 1 || len(join.HashKeysR) != 1 {
		t.Errorf("hash keys not extracted: %+v", join)
	}
	// Forced preferences.
	plNL := New(testSchema(t), Options{Join: JoinPreferNL})
	if !hasKind(mustPlan(t, plNL, "SELECT t0.c0 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0"), OpNLJoin) {
		t.Error("JoinPreferNL ignored")
	}
	plM := New(testSchema(t), Options{Join: JoinPreferMerge})
	if !hasKind(mustPlan(t, plM, "SELECT t0.c0 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0"), OpMergeJoin) {
		t.Error("JoinPreferMerge ignored")
	}
	// Non-equi join cannot hash.
	p = mustPlan(t, pl, "SELECT t0.c0 FROM t0 INNER JOIN t1 ON t0.c0 < t1.c0")
	if !hasKind(p, OpNLJoin) {
		t.Errorf("non-equi join should be NL:\n%s", p)
	}
}

func TestPlanAggregates(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT c1, COUNT(*) FROM t0 GROUP BY c1 HAVING COUNT(*) > 2")
	ks := kinds(p)
	joined := ""
	for _, k := range ks {
		joined += string(k) + " "
	}
	if !strings.Contains(joined, string(OpHashAgg)) ||
		!strings.Contains(joined, string(OpFilter)) {
		t.Fatalf("agg plan: %v", ks)
	}
	plS := New(testSchema(t), Options{Agg: AggPreferSort})
	if !hasKind(mustPlan(t, plS, "SELECT c1, COUNT(*) FROM t0 GROUP BY c1"), OpSortAgg) {
		t.Error("AggPreferSort ignored")
	}
}

func TestPlanTopNFusion(t *testing.T) {
	pl := New(testSchema(t), Options{FuseTopN: true})
	p := mustPlan(t, pl, "SELECT c0 FROM t0 ORDER BY c0 LIMIT 5")
	if p.Kind != OpTopN || p.Limit != 5 {
		t.Fatalf("expected TopN root:\n%s", p)
	}
	plain := New(testSchema(t), Options{})
	p = mustPlan(t, plain, "SELECT c0 FROM t0 ORDER BY c0 LIMIT 5")
	if p.Kind != OpLimit || p.Children[0].Kind != OpSort {
		t.Fatalf("expected Limit over Sort:\n%s", p)
	}
}

func TestPlanCompound(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT c0 FROM t0 UNION SELECT c0 FROM t1")
	if p.Kind != OpUnion || len(p.Children) != 2 {
		t.Fatalf("compound plan:\n%s", p)
	}
	if _, err := pl.Plan(sql.MustParse("SELECT c0, c1 FROM t0 UNION SELECT c0 FROM t1")); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestPlanSubplans(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT c0 FROM t0 WHERE c1 IN (SELECT c0 FROM t1)")
	found := 0
	p.Walk(func(op *PhysOp, _ int) { found += len(op.Subplans) })
	if found != 1 {
		t.Fatalf("expected one subplan, got %d:\n%s", found, p)
	}
}

func TestPlanDML(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "INSERT INTO t0 VALUES (1, 2)")
	if p.Kind != OpInsert {
		t.Errorf("insert plan kind = %v", p.Kind)
	}
	p = mustPlan(t, pl, "UPDATE t0 SET c1 = 0 WHERE c0 = 5")
	if p.Kind != OpUpdate || len(p.Children) != 1 {
		t.Errorf("update plan:\n%s", p)
	}
	p = mustPlan(t, pl, "DELETE FROM t0 WHERE c0 = 5")
	if p.Kind != OpDelete {
		t.Errorf("delete plan:\n%s", p)
	}
	p = mustPlan(t, pl, "CREATE TABLE x (a INT)")
	if p.Kind != OpCreateTable {
		t.Errorf("create table plan kind = %v", p.Kind)
	}
	p = mustPlan(t, pl, "CREATE INDEX ix ON t0 (c1)")
	if p.Kind != OpCreateIndex {
		t.Errorf("create index plan kind = %v", p.Kind)
	}
}

func TestPlanExplainUnwraps(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "EXPLAIN SELECT c0 FROM t0")
	if p.Kind != OpProject {
		t.Errorf("EXPLAIN should plan the inner statement, got %v", p.Kind)
	}
}

func TestPlanErrors(t *testing.T) {
	pl := New(testSchema(t), Options{})
	bad := []string{
		"SELECT c0 FROM missing",
		"UPDATE missing SET a = 1",
	}
	for _, q := range bad {
		if _, err := pl.Plan(sql.MustParse(q)); err == nil {
			t.Errorf("Plan(%q) should fail", q)
		}
	}
}

func TestSplitJoinConjuncts(t *testing.T) {
	e := sql.MustParse("SELECT 1 FROM t0 WHERE c0 = 1 AND c1 = 2 AND c0 < 5").(*sql.Select)
	cs := SplitConjuncts(e.Core.Where)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d", len(cs))
	}
	back := JoinConjuncts(cs)
	if len(SplitConjuncts(back)) != 3 {
		t.Error("JoinConjuncts round trip broken")
	}
	if JoinConjuncts(nil) != nil {
		t.Error("empty conjuncts should be nil")
	}
}

func TestEstimatorSelectivities(t *testing.T) {
	s := testSchema(t)
	e := &Estimator{Schema: s}
	eq := e.Selectivity(sql.MustParse("SELECT 1 FROM t0 WHERE c1 = 5").(*sql.Select).Core.Where, "t0")
	if eq != 0.01 { // distinct = 100
		t.Errorf("eq selectivity = %v, want 0.01", eq)
	}
	and := e.Selectivity(sql.MustParse("SELECT 1 FROM t0 WHERE c1 = 5 AND c1 = 6").(*sql.Select).Core.Where, "t0")
	if and >= eq {
		t.Errorf("AND must compound: %v >= %v", and, eq)
	}
	or := e.Selectivity(sql.MustParse("SELECT 1 FROM t0 WHERE c1 = 5 OR c1 = 6").(*sql.Select).Core.Where, "t0")
	if or <= eq {
		t.Errorf("OR must widen: %v <= %v", or, eq)
	}
	always := e.Selectivity(&sql.Literal{Val: datum.Bool(true)}, "t0")
	if always != 1 {
		t.Errorf("TRUE selectivity = %v", always)
	}
}

func TestBestIndex(t *testing.T) {
	s := testSchema(t)
	e := &Estimator{Schema: s}
	tbl := s.Table("t0")
	where := sql.MustParse("SELECT 1 FROM t0 WHERE c0 = 5 AND c1 > 2").(*sql.Select).Core.Where
	m := e.BestIndex(tbl, where)
	if m == nil || m.Index.Name != "t0_pkey" {
		t.Fatalf("BestIndex = %+v", m)
	}
	if m.IndexCond == nil || m.Residual == nil {
		t.Errorf("index/residual split: %+v", m)
	}
	if e.BestIndex(tbl, sql.MustParse("SELECT 1 FROM t0 WHERE c1 = 5").(*sql.Select).Core.Where) != nil {
		t.Error("no index on c1")
	}
}

// coverSchema has t0 (c0 primary key, c1, c2) with indexes t0_pkey (c0)
// and t0_c1_c0 (c1, c0), t1 (c0, v) with t1_c0 (c0), and t2 (a, b) with
// t2_a_b (a, b), an index that holds the whole table.
func coverSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema()
	tables := []*catalog.Table{
		{Name: "t0", Columns: []catalog.Column{
			{Name: "c0", Type: catalog.TInt, PrimaryKey: true},
			{Name: "c1", Type: catalog.TInt},
			{Name: "c2", Type: catalog.TText},
		}, Indexes: []*catalog.Index{
			{Name: "t0_pkey", Table: "t0", Columns: []string{"c0"}, Unique: true, Primary: true},
			{Name: "t0_c1_c0", Table: "t0", Columns: []string{"c1", "c0"}},
		}},
		{Name: "t1", Columns: []catalog.Column{
			{Name: "c0", Type: catalog.TInt},
			{Name: "v", Type: catalog.TText},
		}, Indexes: []*catalog.Index{
			{Name: "t1_c0", Table: "t1", Columns: []string{"c0"}},
		}},
		{Name: "t2", Columns: []catalog.Column{
			{Name: "a", Type: catalog.TInt},
			{Name: "b", Type: catalog.TInt},
		}, Indexes: []*catalog.Index{
			{Name: "t2_a_b", Table: "t2", Columns: []string{"a", "b"}},
		}},
	}
	for _, tbl := range tables {
		if err := s.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		s.SetStats(tbl.Name, &catalog.TableStats{RowCount: 1000})
	}
	return s
}

// TestCoveringIndexDecision pins which scans are index-only: the index
// must hold every column the scan's scope references on its table.
// PreferIndexProbes makes every probe use its index, so the scan kind
// shows the covering decision alone.
func TestCoveringIndexDecision(t *testing.T) {
	probes := Options{PreferIndexProbes: true}
	indexOnly := Options{PreferIndexOnly: true}
	for _, tc := range []struct {
		name  string
		opts  Options
		query string
		alias string // the scanned table's alias
		kind  OpKind
		index string
	}{
		{"qualified, covered", probes, "SELECT t0.c0 FROM t0 WHERE t0.c1 = 5", "t0", OpIndexOnlyScan, "t0_c1_c0"},
		{"qualified, not covered", probes, "SELECT t0.c2 FROM t0 WHERE t0.c1 = 5", "t0", OpIndexScan, "t0_c1_c0"},
		{"alias", probes, "SELECT x.c0 FROM t0 AS x WHERE x.c1 = 5 ORDER BY x.c1", "x", OpIndexOnlyScan, "t0_c1_c0"},
		{"ORDER BY counts", probes, "SELECT c0 FROM t0 WHERE c1 = 5 ORDER BY c2", "t0", OpIndexScan, "t0_c1_c0"},
		{"unqualified in a join, other table's column", probes,
			"SELECT v FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c1 = 5", "t0", OpIndexOnlyScan, "t0_c1_c0"},
		{"unqualified in a join, this table's column", probes,
			"SELECT c2 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c1 = 5", "t0", OpIndexScan, "t0_c1_c0"},
		{"WHERE subquery counts for the outer scope", probes,
			"SELECT t0.c0 FROM t0 WHERE t0.c1 = 5 AND EXISTS (SELECT 1 FROM t1 WHERE t1.v = t0.c2)", "t0", OpIndexScan, "t0_c1_c0"},
		{"WHERE subquery without outer references", probes,
			"SELECT t0.c0 FROM t0 WHERE t0.c1 = 5 AND EXISTS (SELECT 1 FROM t1 WHERE t1.v = 'a')", "t0", OpIndexOnlyScan, "t0_c1_c0"},
		{"subquery scope", probes,
			"SELECT c2 FROM t0 WHERE c1 IN (SELECT c0 FROM t1 WHERE c0 = 3)", "t1", OpIndexOnlyScan, "t1_c0"},
		{"derived table, covered", probes,
			"SELECT s.c0 FROM (SELECT c0, c1 FROM t0 WHERE c1 = 5) AS s", "t0", OpIndexOnlyScan, "t0_c1_c0"},
		{"derived table, not covered", probes,
			"SELECT s.c0 FROM (SELECT c0, c2 FROM t0 WHERE c1 = 5) AS s", "t0", OpIndexScan, "t0_c1_c0"},
		{"UPDATE: only WHERE counts", probes, "UPDATE t0 SET c2 = 'x' WHERE c1 = 5", "t0", OpIndexOnlyScan, "t0_c1_c0"},
		{"DELETE: WHERE not covered", probes, "DELETE FROM t0 WHERE c1 = 5 AND c2 = 'a'", "t0", OpIndexScan, "t0_c1_c0"},
		{"no references", indexOnly, "SELECT 1 FROM t0", "t0", OpSeqScan, ""},
		{"no references, aggregate", indexOnly, "SELECT COUNT(*) FROM t0", "t0", OpSeqScan, ""},
		{"PreferIndexOnly: first covering index", indexOnly, "SELECT c0 FROM t0", "t0", OpIndexOnlyScan, "t0_pkey"},
		{"PreferIndexOnly: two-column index", indexOnly, "SELECT c1, c0 FROM t0", "t0", OpIndexOnlyScan, "t0_c1_c0"},
		{"PreferIndexOnly: nothing covers", indexOnly, "SELECT c2 FROM t0", "t0", OpSeqScan, ""},
		{"PreferIndexOnly off", Options{}, "SELECT c0 FROM t0", "t0", OpSeqScan, ""},
		{"star", probes, "SELECT * FROM t0 WHERE c0 = 4", "t0", OpIndexScan, "t0_pkey"},
		{"star, index holds the table", probes, "SELECT * FROM t2 WHERE a = 4", "t2", OpIndexOnlyScan, "t2_a_b"},
		{"star in a join", probes,
			"SELECT * FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t1.c0 = 4", "t1", OpIndexScan, "t1_c0"},
		{"other table's star", probes,
			"SELECT t0.* FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t1.c0 = 4", "t1", OpIndexOnlyScan, "t1_c0"},
		{"own table's star", probes,
			"SELECT t1.* FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t1.c0 = 4", "t1", OpIndexScan, "t1_c0"},
		{"PreferIndexOnly: star", indexOnly, "SELECT * FROM t0", "t0", OpSeqScan, ""},
	} {
		p := mustPlan(t, New(coverSchema(t), tc.opts), tc.query)
		var scan *PhysOp
		p.Walk(func(op *PhysOp, _ int) {
			if op.Table != "" && op.Alias == tc.alias && scan == nil {
				scan = op
			}
		})
		if scan == nil || scan.Kind != tc.kind || scan.Index != tc.index {
			t.Errorf("%s: %s: want %s using %q, plan:\n%s", tc.name, tc.query, tc.kind, tc.index, p)
		}
	}
}
