package cert

import (
	"errors"
	"testing"

	"uplan/internal/dbms"
	"uplan/internal/oracle"
)

func seeded(t *testing.T, name string) *dbms.Engine {
	t.Helper()
	e := dbms.MustNew(name)
	for _, s := range []string{
		"CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 INT, c2 TEXT)",
		"INSERT INTO t0 VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c'), (4, 40, 'd')",
	} {
		if _, err := e.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	return e
}

// decoder is the task decoder the campaign would give a task on e.
func decoder(t *testing.T, e *dbms.Engine) *oracle.Decoder {
	t.Helper()
	dec, err := oracle.NewDecoder(e.Info.Name)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestEstimateReadsUnifiedPlan(t *testing.T) {
	for _, name := range []string{"postgresql", "mysql", "tidb"} {
		e := seeded(t, name)
		est, err := Estimate(e, decoder(t, e), "SELECT * FROM t0")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if est < 3 || est > 5 {
			t.Errorf("%s: base estimate = %v, want ≈4", name, est)
		}
	}
}

func TestMonotonicityHoldsOnCorrectEngine(t *testing.T) {
	e := seeded(t, "postgresql")
	v, err := CheckPair(e, decoder(t, e),
		"SELECT * FROM t0 WHERE c1 > 15",
		"SELECT * FROM t0 WHERE c1 > 15 AND c2 = 'b'")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("correct engine flagged: %v", v)
	}
}

func TestViolationDetected(t *testing.T) {
	e := seeded(t, "tidb")
	e.Opts.Quirks.PredicateInflatesEstimate = 1000
	v, err := CheckPair(e, decoder(t, e),
		"SELECT * FROM t0 WHERE c1 > 15",
		"SELECT * FROM t0 WHERE c1 > 15 AND c0 = 2")
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("inflated estimate not flagged")
	}
	if v.RestrictedEst <= v.BaseEst {
		t.Errorf("violation fields: %+v", v)
	}
	if v.String() == "" {
		t.Error("violation must render")
	}
}

// runTask runs CERT's registered task on e and returns its report and
// the findings it emitted. The Report hook dedups on (kind, detail) as
// the campaign store does for one task. drop, when non-empty, names
// tables removed from e's catalog after the schema is set up and before
// the first pair, so the generator's model names tables the engine can
// no longer plan.
func runTask(t *testing.T, e *dbms.Engine, seed int64, tables, queries int, drop ...string) (oracle.TaskReport, []oracle.Finding) {
	t.Helper()
	var found []oracle.Finding
	seen := map[string]bool{}
	tc := &oracle.TaskContext{
		Engine: e, Seed: seed, Queries: queries, Tables: tables, Rows: 8,
		Decoder: decoder(t, e),
		Report: func(f oracle.Finding) bool {
			key := string(f.Kind) + "|" + f.Detail
			if seen[key] {
				return false
			}
			seen[key] = true
			found = append(found, f)
			return true
		},
		Tick: func(queries int) bool {
			if queries == 0 {
				for _, name := range drop {
					e.DB.Schema.DropTable(name)
				}
			}
			return true
		},
	}
	rep, err := TaskOracle{}.Run(tc)
	if err != nil {
		t.Fatal(err)
	}
	return rep, found
}

func TestRunSkipsUnplannable(t *testing.T) {
	rep, found := runTask(t, dbms.MustNew("postgresql"), 3, 1, 10, "t0")
	if len(found) != 0 {
		t.Fatalf("unplannable pairs are not reportable: %v", found)
	}
	if rep.Skipped != 10 || rep.Checks != 0 {
		t.Errorf("skipped %d, checked %d: want all 10 pairs skipped", rep.Skipped, rep.Checks)
	}
}

// TestRunReportsMissingEstimates is the regression test for swallowed
// estimate errors: SQLite's plans carry no cardinality estimate, which
// is a reportable signal. Once it is recorded, a repeat stops the task
// instead of spending the budget re-deriving it.
func TestRunReportsMissingEstimates(t *testing.T) {
	rep, found := runTask(t, dbms.MustNew("sqlite"), 11, 2, 5)
	if len(found) != 1 {
		t.Fatalf("findings = %v, want the one missing-estimate finding", found)
	}
	if found[0].Kind != oracle.KindEstimate || found[0].Detail != "no cardinality estimate in plan" {
		t.Errorf("finding = %+v", found[0])
	}
	if rep.Queries >= 5 {
		t.Errorf("Queries = %d: a repeated missing estimate must stop the task early", rep.Queries)
	}
}

// TestEstimateClassifiesFailures pins the two error classes Estimate
// distinguishes: unplannable queries (skip-worthy) versus plans without a
// readable estimate (reportable).
func TestEstimateClassifiesFailures(t *testing.T) {
	pg := seeded(t, "postgresql")
	_, err := Estimate(pg, decoder(t, pg), "SELECT * FROM no_such_table")
	if !errors.Is(err, ErrUnplannable) {
		t.Errorf("unknown table: %q must match ErrUnplannable", err)
	}
	if errors.Is(err, ErrNoEstimate) {
		t.Errorf("unknown table must not match ErrNoEstimate: %q", err)
	}

	sq := seeded(t, "sqlite")
	_, err = Estimate(sq, decoder(t, sq), "SELECT * FROM t0")
	if !errors.Is(err, ErrNoEstimate) {
		t.Errorf("estimate-free plan: %q must match ErrNoEstimate", err)
	}
	if errors.Is(err, ErrUnplannable) {
		t.Errorf("estimate-free plan is plannable: %q", err)
	}
}

// TestRunCountsSkips: unplannable pairs still skip silently (CERT only
// reasons about planned queries) but are counted.
func TestRunCountsSkips(t *testing.T) {
	// Three generator tables while the engine keeps only t0: pairs
	// against t1/t2 cannot plan and must be skipped (and counted), pairs
	// against t0 plan normally.
	rep, found := runTask(t, dbms.MustNew("postgresql"), 3, 3, 12, "t1", "t2")
	if len(found) != 0 {
		t.Errorf("pristine engine flagged: %v", found)
	}
	if rep.Skipped == 0 {
		t.Error("no unplannable pair was counted as skipped")
	}
	if rep.Checks == 0 {
		t.Error("no pair against t0 was checked")
	}
	if rep.Checks+rep.Skipped != 12 || rep.Queries != 12 {
		t.Errorf("checked %d + skipped %d of %d queries, want 12 pairs", rep.Checks, rep.Skipped, rep.Queries)
	}
}
