package dbms_test

import (
	"fmt"
	"slices"
	"testing"

	"uplan/internal/dbms"
	"uplan/internal/planner"
)

// identityCases are hand-written statements around the identity
// projection, each with the number of identity projections its plan
// must hold. They run over identitySchema.
var identityCases = []struct {
	query    string
	identity int
}{
	// ORDER BY a column that is not selected under its name: the hidden
	// sort key appended to the projection clears its mark.
	{"SELECT a.x AS p, a.y AS q, a.z AS r FROM a ORDER BY y", 0},
	{"SELECT x AS p, y AS q, z AS r FROM a ORDER BY x", 1}, // x resolves as p
	{"SELECT x, y FROM a ORDER BY z", 0},
	{"SELECT x FROM a GROUP BY x ORDER BY y", 0},
	// A self-join whose sides share a table name: the second side's
	// references resolve to the first side's columns, as they always did.
	{"SELECT * FROM a JOIN a ON a.x > 1", 0},
	{"SELECT * FROM a AS l JOIN a AS r ON l.x = r.x", 1},
	// t.* over a join.
	{"SELECT a.* FROM a JOIN b ON a.x = b.x", 0},
	{"SELECT a.*, b.* FROM a LEFT JOIN b ON a.x = b.x", 1},
	{"SELECT b.*, a.* FROM a JOIN b ON a.x = b.x", 0},
	{"SELECT a.*, b.* FROM a JOIN b ON a.x = b.x ORDER BY b.w DESC LIMIT 3", 1},
	// Derived tables, set operations, subqueries and DISTINCT.
	{"SELECT * FROM (SELECT * FROM a WHERE x > 1) AS s WHERE s.y IS NOT NULL", 2},
	{"SELECT * FROM a UNION ALL SELECT * FROM a", 2},
	{"SELECT DISTINCT * FROM a", 1},
	{"SELECT * FROM b WHERE x IN (SELECT x FROM a)", 1},
	{"SELECT x, w FROM b WHERE EXISTS (SELECT * FROM a WHERE a.x = b.x)", 2},
}

var identitySchema = []string{
	"CREATE TABLE a (x INT, y INT, z TEXT)",
	"CREATE TABLE b (x INT, w FLOAT)",
	"INSERT INTO a VALUES (1, 10, 'p'), (2, NULL, 'q'), (2, 20, NULL), (3, 30, 'p'), (NULL, 40, 's')",
	"INSERT INTO b VALUES (1, 1.5), (2, 2.5), (2, 0.5), (4, NULL)",
}

// TestIdentityProjectionMatchesEvaluation checks the identity-projection
// shortcut, which hands a SELECT * projection's input rows through,
// against evaluating every projection row by row. On all nine engines,
// over the generated queries and TLP partitions of seeds 1-5 and the
// hand-written identityCases, Execute and ExecuteWithoutIdentity give the
// same columns and rows, or the same error.
func TestIdentityProjectionMatchesEvaluation(t *testing.T) {
	for _, name := range dbms.Names() {
		identity := 0
		for seed := int64(1); seed <= 5; seed++ {
			e := dbms.MustNew(name)
			g, queries := generate(t, e, seed)
			for i := 0; i < 50; i++ {
				table, pred := g.PartitionableQuery()
				base := "SELECT * FROM " + table
				queries = append(queries, base, base+" WHERE "+pred,
					base+" WHERE NOT ("+pred+")", base+" WHERE ("+pred+") IS NULL")
			}
			for _, q := range queries {
				checkIdentityOutcome(t, e, q)
				identity += identityProjections(e, q)
			}
		}
		if identity == 0 {
			t.Errorf("%s: no generated query planned an identity projection", name)
		}

		e := dbms.MustNew(name)
		for _, s := range identitySchema {
			if _, err := e.Execute(s); err != nil {
				t.Fatalf("%s: %q: %v", name, s, err)
			}
		}
		for _, c := range identityCases {
			checkIdentityOutcome(t, e, c.query)
			if got := identityProjections(e, c.query); got != c.identity {
				t.Errorf("%s: %q plans %d identity projections, want %d", name, c.query, got, c.identity)
			}
		}
	}
}

// checkIdentityOutcome compares Execute with ExecuteWithoutIdentity on q.
func checkIdentityOutcome(t *testing.T, e *dbms.Engine, q string) {
	t.Helper()
	got, gotErr := e.Execute(q)
	want, wantErr := dbms.ExecuteWithoutIdentity(e, q)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: %q: error %v, want %v", e.Info.Name, q, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !slices.Equal(got.Columns, want.Columns) {
		t.Fatalf("%s: %q: columns %v, want %v", e.Info.Name, q, got.Columns, want.Columns)
	}
	// %#v spells out every field of every value, kind included.
	if g, w := fmt.Sprintf("%#v", got.Rows), fmt.Sprintf("%#v", want.Rows); g != w {
		t.Fatalf("%s: %q: rows\n%s\nwant\n%s", e.Info.Name, q, g, w)
	}
}

// identityProjections counts the identity projections in q's plan.
func identityProjections(e *dbms.Engine, q string) int {
	plan, err := e.PhysicalPlan(q)
	if err != nil {
		return 0
	}
	n := 0
	plan.Walk(func(op *planner.PhysOp, _ int) {
		if op.Kind == planner.OpProject && op.Identity {
			n++
		}
	})
	return n
}
