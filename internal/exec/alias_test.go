package exec

import (
	"math"
	"testing"

	"uplan/internal/datum"
	"uplan/internal/planner"
	"uplan/internal/sql"
	"uplan/internal/storage"
)

// deepCopy snapshots rows so later writes through shared slices show.
func deepCopy(rows [][]datum.D) [][]datum.D {
	out := make([][]datum.D, len(rows))
	for i, r := range rows {
		out[i] = append([]datum.D(nil), r...)
	}
	return out
}

// sameValues compares rows value by value, floats by bit pattern.
func sameValues(a, b [][]datum.D) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			y := b[i][j]
			if x.K != y.K || x.I != y.I || x.S != y.S || x.B != y.B ||
				math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		}
	}
	return true
}

// storedRows snapshots every live row of every table.
func storedRows(db *storage.DB) map[string][][]datum.D {
	out := map[string][][]datum.D{}
	for _, def := range db.Schema.Tables() {
		var rows [][]datum.D
		db.Table(def.Name).Scan(func(_ int, row storage.Row) bool {
			rows = append(rows, append([]datum.D(nil), row...))
			return true
		})
		out[def.Name] = rows
	}
	return out
}

// TestResultsSurviveLaterDML: scans hand out stored rows without copying,
// and a SELECT * projection hands its input through, so a result aliases
// storage and storage must be copy-on-write. Rows a scan handed out, and
// a result taken before an UPDATE, DELETE or INSERT, keep their values
// afterwards.
func TestResultsSurviveLaterDML(t *testing.T) {
	h := newHarness(t)
	h.pl = planner.New(h.db.Schema, planner.Options{PreferIndexProbes: true})
	seedBasic(h)
	scan := h.exec("SELECT * FROM t0")
	probe := h.exec("SELECT * FROM t0 WHERE c0 = 2")
	scanWant, probeWant := deepCopy(scan.Rows), deepCopy(probe.Rows)
	// The rows a scan operator hands out, uncopied.
	var stored [][]datum.D
	h.db.Table("t0").Scan(func(_ int, row storage.Row) bool {
		stored = append(stored, row)
		return true
	})
	storedWant := deepCopy(stored)
	if &scan.Rows[0][0] != &stored[0][0] {
		t.Error("SELECT * copied the stored rows; its identity projection should hand them through")
	}

	h.exec("UPDATE t0 SET c1 = 99, c2 = 'z'")
	h.exec("DELETE FROM t0 WHERE c0 = 1")
	h.exec("INSERT INTO t0 (c0, c1, c2) VALUES (6, 60, 'f')")
	h.exec("UPDATE t0 SET c0 = c0 + 100 WHERE c0 = 2")

	if !sameValues(scan.Rows, scanWant) {
		t.Errorf("seq scan result changed under later DML:\n got %v\nwant %v", scan.Rows, scanWant)
	}
	if !sameValues(stored, storedWant) {
		t.Errorf("stored rows were written in place by later DML:\n got %v\nwant %v", stored, storedWant)
	}
	if !sameValues(probe.Rows, probeWant) {
		t.Errorf("index scan result changed under later DML:\n got %v\nwant %v", probe.Rows, probeWant)
	}
	// The DML really ran: the check above is not vacuous.
	h.mustRows("SELECT c0, c1, c2 FROM t0 WHERE c0 = 102",
		[][]datum.D{{datum.Int(102), datum.Int(99), datum.Str("z")}})
}

// aliasBatch covers every read operator: scans (sequential and index),
// filters, projections, the three joins (inner and LEFT), sort, TopN and
// limit, distinct, the four set operations, aggregates with GROUP BY and
// HAVING, and correlated and uncorrelated subqueries.
var aliasBatch = []string{
	"SELECT * FROM t0",
	"SELECT * FROM t0 WHERE c0 = 3",
	"SELECT * FROM t0 WHERE c0 IN (1, 4)",
	"SELECT * FROM t0 WHERE c0 >= 2 AND c0 <= 4",
	"SELECT c0 + 1, c2 FROM t0 WHERE c1 > 10",
	"SELECT * FROM t0 JOIN t1 ON t0.c0 = t1.k",
	"SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.k",
	"SELECT t0.c0, t1.v FROM t0 JOIN t1 ON t0.c0 = t1.k AND t1.v > 1.0",
	"SELECT * FROM t0 JOIN t1 ON t0.c1 < t1.v * 10",
	"SELECT * FROM t0, t1",
	"SELECT * FROM t0 ORDER BY c1 DESC, c0",
	"SELECT c0 FROM t0 ORDER BY c2, c1 LIMIT 3 OFFSET 1",
	"SELECT * FROM t0 ORDER BY c0 LIMIT 2",
	"SELECT DISTINCT c2 FROM t0",
	"SELECT DISTINCT * FROM t1",
	"SELECT c0 FROM t0 UNION SELECT k FROM t1",
	"SELECT c0 FROM t0 UNION ALL SELECT k FROM t1",
	"SELECT c0 FROM t0 INTERSECT SELECT k FROM t1",
	"SELECT c0 FROM t0 EXCEPT SELECT k FROM t1",
	"SELECT c2, COUNT(*), SUM(c1), MIN(c0), MAX(c1) FROM t0 GROUP BY c2",
	"SELECT c2, AVG(c1) FROM t0 GROUP BY c2 HAVING COUNT(*) > 1 ORDER BY c2",
	"SELECT COUNT(DISTINCT c2) FROM t0",
	"SELECT * FROM t0 WHERE c1 > (SELECT MIN(v) FROM t1)",
	"SELECT * FROM t0 WHERE EXISTS (SELECT * FROM t1 WHERE t1.k = t0.c0)",
	"SELECT * FROM t0 WHERE c0 IN (SELECT k FROM t1)",
}

// TestOperatorsDoNotWriteChildRows runs the batch under every join
// preference and checks, after a second pass, that neither the stored
// rows nor the first pass's results changed: no operator writes into a
// row it received from a child, and results are not recycled buffers.
func TestOperatorsDoNotWriteChildRows(t *testing.T) {
	covered := map[planner.OpKind]bool{}
	for _, opts := range []planner.Options{
		{Join: planner.JoinPreferNL, Agg: planner.AggPreferSort},
		{Join: planner.JoinPreferHash, Agg: planner.AggPreferHash, PreferIndexProbes: true},
		{Join: planner.JoinPreferMerge, FuseTopN: true},
	} {
		h := newHarness(t)
		h.pl = planner.New(h.db.Schema, opts)
		seedBasic(h)
		h.exec("CREATE TABLE t1 (k INT, v FLOAT)")
		h.exec("INSERT INTO t1 VALUES (1, 0.5), (2, 2.5), (2, 2.5), (4, NULL), (NULL, 1.5), (7, 3.0)")
		h.exec("CREATE INDEX t1_k ON t1 (k)")
		before := storedRows(h.db)

		var results []*Result
		var want [][][]datum.D
		for _, q := range aliasBatch {
			stmt, err := sql.Parse(q)
			if err != nil {
				t.Fatalf("parse %q: %v", q, err)
			}
			plan, err := h.pl.Plan(stmt)
			if err != nil {
				t.Fatalf("plan %q: %v", q, err)
			}
			plan.Walk(func(op *planner.PhysOp, _ int) {
				if op.Kind == planner.OpIndexOnlyScan {
					covered[planner.OpIndexScan] = true // same executor path
				}
				covered[op.Kind] = true
			})
			res, err := h.ex.Run(plan)
			if err != nil {
				t.Fatalf("run %q: %v", q, err)
			}
			results = append(results, res)
			want = append(want, deepCopy(res.Rows))
		}
		for _, q := range aliasBatch {
			h.exec(q)
		}
		for i, res := range results {
			if !sameValues(res.Rows, want[i]) {
				t.Errorf("%+v: result of %q changed by later queries:\n got %v\nwant %v",
					opts, aliasBatch[i], res.Rows, want[i])
			}
		}
		after := storedRows(h.db)
		for name, rows := range before {
			if !sameValues(after[name], rows) {
				t.Errorf("%+v: stored rows of %s changed by SELECTs:\n got %v\nwant %v",
					opts, name, after[name], rows)
			}
		}
	}
	for _, k := range []planner.OpKind{
		planner.OpSeqScan, planner.OpIndexScan, planner.OpFilter, planner.OpProject,
		planner.OpNLJoin, planner.OpHashJoin, planner.OpMergeJoin,
		planner.OpSort, planner.OpTopN, planner.OpLimit, planner.OpDistinct,
		planner.OpUnion, planner.OpUnionAll, planner.OpIntersect, planner.OpExcept,
		planner.OpHashAgg, planner.OpSortAgg,
	} {
		if !covered[k] {
			t.Errorf("batch never planned a %s operator", k)
		}
	}
}
