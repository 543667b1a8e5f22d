package dbms_test

import (
	"testing"

	"uplan/internal/dbms"
	"uplan/internal/planner"
	"uplan/internal/sql"
)

// statementWorkload loads seed 1's generated schema into a PostgreSQL
// engine and returns it with one TLP check's four queries (the base
// SELECT * and its three partitions) and the seed's generated queries
// that explain without error.
func statementWorkload(tb testing.TB) (e *dbms.Engine, tlp, explainable []string) {
	tb.Helper()
	e = dbms.MustNew("postgresql")
	g, queries := generate(tb, e, 1)
	table, pred := g.PartitionableQuery()
	base := "SELECT * FROM " + table
	tlp = []string{base, base + " WHERE " + pred, base + " WHERE NOT (" + pred + ")", base + " WHERE (" + pred + ") IS NULL"}
	for _, q := range queries {
		if _, err := e.Explain(q, e.DefaultFormat()); err == nil {
			explainable = append(explainable, q)
		}
	}
	return e, tlp, explainable
}

// BenchmarkEngineStatement measures one statement through an engine:
// parse, plan and execute for a TLP query, and parse, plan, shape and
// serialize for a generated query's EXPLAIN. These are the statement
// paths every campaign oracle query takes.
func BenchmarkEngineStatement(b *testing.B) {
	e, tlp, explainable := statementWorkload(b)
	b.Run("tlp-execute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Execute(tlp[i%len(tlp)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generated-explain", func(b *testing.B) {
		b.ReportAllocs()
		format := e.DefaultFormat()
		for i := 0; i < b.N; i++ {
			if _, err := e.Explain(explainable[i%len(explainable)], format); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlan measures planning alone: every engine's planner over the
// statements of seed 1's indexed workload that plan without error, each
// parsed once. One op plans one statement; the workload reaches
// sequential, index and index-only scans.
func BenchmarkPlan(b *testing.B) {
	type job struct {
		pl   *planner.Planner
		stmt sql.Statement
	}
	var jobs []job
	for _, name := range dbms.Names() {
		e := dbms.MustNew(name)
		pl := planner.New(e.DB.Schema, e.Opts)
		for _, q := range indexedWorkload(b, e, 1) {
			stmt, err := sql.Parse(q)
			if err != nil {
				continue
			}
			if _, err := pl.Plan(stmt); err == nil {
				jobs = append(jobs, job{pl, stmt})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		if _, err := j.pl.Plan(j.stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// tlpCheckAllocBudget bounds the heap allocations of one TLP check's four
// Execute calls in TestEngineStatementAllocs. Measured on go1.24
// linux/amd64: 80, and 83 under the race detector, which makes sync.Pool
// drop a share of the token slices it is handed. It was 173 before
// SELECT * projections handed their input through, plain runs stopped
// recording operator statistics and Parse pooled its tokens, and 97
// before the covering-index check stopped building column maps for
// every statement. The budget leaves about 20% headroom for toolchain
// drift.
const tlpCheckAllocBudget = 100

// TestEngineStatementAllocs guards the per-statement allocation work of
// the TLP-shaped Execute path against regressions.
func TestEngineStatementAllocs(t *testing.T) {
	e, tlp, _ := statementWorkload(t)
	allocs := testing.AllocsPerRun(50, func() {
		for _, q := range tlp {
			if _, err := e.Execute(q); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > tlpCheckAllocBudget {
		t.Errorf("one TLP check's four Execute calls made %.0f allocations, budget %d", allocs, tlpCheckAllocBudget)
	}
}
