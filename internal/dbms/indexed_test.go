package dbms_test

import (
	"strings"
	"testing"

	"uplan/internal/dbms"
	"uplan/internal/planner"
)

// TestIndexedPlanInvariants checks every engine's physical plans over the
// indexed workload: no operator starts after it finishes, and a statement
// that selects * reads no table through an index-only scan unless the
// index holds every column of the table. Generated statements have no
// subqueries, so every scan of such a statement feeds the star.
func TestIndexedPlanInvariants(t *testing.T) {
	for _, name := range dbms.Names() {
		forIndexed(t, name, func(e *dbms.Engine, seed int64, i int, q string) {
			p, err := e.PhysicalPlan(q)
			if err != nil {
				return
			}
			star := strings.HasPrefix(q, "SELECT * ") || strings.HasPrefix(q, "SELECT DISTINCT * ")
			p.Walk(func(op *planner.PhysOp, _ int) {
				if op.StartCost > op.TotalCost {
					t.Errorf("%s seed %d s%d: %s starts at %g after it finishes at %g: %s",
						name, seed, i, op.Kind, op.StartCost, op.TotalCost, q)
				}
				if star && op.Kind == planner.OpIndexOnlyScan && !indexHoldsTable(e, op) {
					t.Errorf("%s seed %d s%d: index-only scan of %s through %s under a star: %s",
						name, seed, i, op.Table, op.Index, q)
				}
			})
		})
	}
}

// indexHoldsTable reports whether the scan's index holds every column of
// its table.
func indexHoldsTable(e *dbms.Engine, scan *planner.PhysOp) bool {
	tbl := e.DB.Schema.Table(scan.Table)
	for _, ix := range tbl.Indexes {
		if ix.Name != scan.Index {
			continue
		}
		for _, c := range tbl.Columns {
			held := false
			for _, col := range ix.Columns {
				held = held || strings.EqualFold(col, c.Name)
			}
			if !held {
				return false
			}
		}
		return true
	}
	return false
}
