package bounds

import (
	"testing"

	"uplan/internal/dbms"
	"uplan/internal/oracle"
	"uplan/internal/sql"
	"uplan/internal/sqlancer"
)

// TestBoundIsSound checks the bound against ground truth: Chen &
// Schneider's SPJU bounds are sound by theorem, so no query may return
// more rows than Bound allows. On every engine, seeds 1–5 each generate
// 300 queries over a freshly applied, unmutated two-table schema of 12
// rows per table; wherever a bound is provable and the query executes,
// the executed row count must not exceed it. A violation is a bug in the
// bound's derivation, which the estimate-side check cannot see.
func TestBoundIsSound(t *testing.T) {
	const seeds, queries = 5, 300
	checked := 0
	for _, name := range dbms.Names() {
		for seed := int64(1); seed <= seeds; seed++ {
			e := dbms.MustNew(name)
			gen := sqlancer.New(oracle.DeriveSeed(seed, name, OracleName))
			if err := oracle.ApplySchema(e, gen, 2, 12); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for i := 0; i < queries; i++ {
				q := gen.Query()
				stmt, err := sql.ParseSelect(q)
				if err != nil {
					continue
				}
				bound, ok := Bound(stmt, e.DB.Schema)
				if !ok {
					continue
				}
				res, err := e.Execute(q)
				if err != nil {
					continue
				}
				checked++
				if rows := float64(len(res.Rows)); rows > bound {
					t.Errorf("%s seed %d q%d: %v rows exceed the bound %v: %s", name, seed, i, rows, bound, q)
				}
			}
		}
	}
	// Most generated queries must reach the comparison, or the test
	// passes vacuously.
	if total := len(dbms.Names()) * seeds * queries; checked < total/2 {
		t.Errorf("compared %d of %d generated queries, want at least half", checked, total)
	}
	t.Logf("%d bounded, executed queries", checked)
}
