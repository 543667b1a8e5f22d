package bounds

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"uplan/internal/cert"
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

func TestCheckHonestEstimatePasses(t *testing.T) {
	e := seeded(t, "postgresql")
	dec := decoder(t, e)
	for _, q := range []string{
		"SELECT * FROM t0",
		"SELECT * FROM t0 WHERE c1 > 15",
		"SELECT 1",
	} {
		v, err := Check(e, dec, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if v != nil {
			t.Errorf("honest engine flagged: %v", v)
		}
	}
}

func TestCheckInflatedEstimateFlagged(t *testing.T) {
	e := seeded(t, "tidb")
	e.Opts.Quirks.PredicateInflatesEstimate = 900
	// The quirk inflates equality-predicate selectivity past 1, so the
	// estimate escapes the provable σ(R) ≤ |R| bound.
	v, err := Check(e, decoder(t, e), "SELECT * FROM t0 WHERE c1 = 20")
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("inflated estimate not flagged")
	}
	if v.Bound != 4 || v.Est <= v.Bound*cert.Tolerance+Slack {
		t.Errorf("violation fields: %+v", v)
	}
	if !strings.Contains(v.String(), "provable SPJU bound") {
		t.Errorf("violation must render: %q", v.String())
	}
}

func TestCheckSentinels(t *testing.T) {
	pg := seeded(t, "postgresql")
	dec := decoder(t, pg)
	if _, err := Check(pg, dec, "SELECT * FROM nope"); !errors.Is(err, ErrNoBound) {
		t.Errorf("unboundable query: %v", err)
	}
	if _, err := Check(pg, dec, "NOT SQL AT ALL"); !errors.Is(err, ErrNoBound) {
		t.Errorf("unparsable query: %v", err)
	}
	// sqlite's plan format exposes no cardinality estimates; the CERT
	// sentinel must pass through so the oracle can classify the skip.
	sq := seeded(t, "sqlite")
	if _, err := Check(sq, decoder(t, sq), "SELECT * FROM t0"); !errors.Is(err, cert.ErrNoEstimate) {
		t.Errorf("no-estimate engine: %v", err)
	}
}

// runTask runs the bounds oracle once as the orchestrator would, with a
// recording Report hook, and returns the findings and the report.
func runTask(t *testing.T, engine string, inject func(e *dbms.Engine)) ([]oracle.Finding, oracle.TaskReport) {
	t.Helper()
	e := dbms.MustNew(engine)
	if inject != nil {
		inject(e)
	}
	var findings []oracle.Finding
	tc := &oracle.TaskContext{
		Engine:  e,
		Seed:    oracle.DeriveSeed(3, engine, OracleName),
		Queries: 40,
		Tables:  2,
		Rows:    12,
		Decoder: decoder(t, e),
		Report:  func(f oracle.Finding) bool { findings = append(findings, f); return true },
	}
	rep, err := TaskOracle{}.Run(tc)
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	return findings, rep
}

// TestOracleHonestEnginesClean is the false-positive guard: on every
// studied engine with its honest estimator, the generated corpus must
// produce zero bound violations — the bound provably dominates every
// estimate the planner's cost model can emit for the generator's shapes.
func TestOracleHonestEnginesClean(t *testing.T) {
	for _, engine := range dbms.Names() {
		findings, rep := runTask(t, engine, nil)
		for _, f := range findings {
			if f.Kind == KindBoundViolation {
				t.Errorf("%s: honest engine flagged: %+v", engine, f)
			}
		}
		if rep.Queries == 0 {
			t.Errorf("%s: task processed no queries", engine)
		}
		// Every query is compared, skipped, or reported as a plan that
		// did not convert.
		if rep.Checks+rep.Skipped+len(findings) != rep.Queries {
			t.Errorf("%s: %d checks + %d skips + %d findings != %d queries",
				engine, rep.Checks, rep.Skipped, len(findings), rep.Queries)
		}
	}
}

// TestOracleSeededViolationDeterministic plants an estimator defect and
// pins both halves of the oracle contract: the defect is found, and two
// identically seeded runs report byte-identical findings.
func TestOracleSeededViolationDeterministic(t *testing.T) {
	inflate := func(e *dbms.Engine) { e.Opts.Quirks.PredicateInflatesEstimate = 900 }
	first, rep := runTask(t, "tidb", inflate)
	violations := 0
	for _, f := range first {
		if f.Kind == KindBoundViolation {
			violations++
		}
	}
	if violations == 0 {
		t.Fatalf("inflated estimator produced no bound violations (findings: %+v)", first)
	}
	if rep.Checks == 0 {
		t.Error("no comparisons counted")
	}
	second, _ := runTask(t, "tidb", inflate)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("identically seeded runs diverged:\n%+v\n%+v", first, second)
	}
}

// TestOracleNoEstimateKeepsRunning pins the budget contract the campaign
// stats rely on: unlike CERT, a no-estimate engine does not end the task
// — every generated query is still processed and counted.
func TestOracleNoEstimateKeepsRunning(t *testing.T) {
	_, rep := runTask(t, "sqlite", nil)
	if rep.Queries != 40 {
		t.Errorf("task stopped early: %d of 40 queries", rep.Queries)
	}
	if rep.Extra["no-estimate"] == 0 {
		t.Errorf("no-estimate skips not counted: %+v", rep.Extra)
	}
}
