package qpg

import (
	"strings"
	"testing"

	"uplan/internal/catalog"
	uplancore "uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/oracle"
)

// taskContext is a standalone task context for e with the budgets the
// campaign defaults use. Its Report hook records every finding it is
// given and counts each one as new.
func taskContext(t *testing.T, e *dbms.Engine, found *[]oracle.Finding) *oracle.TaskContext {
	t.Helper()
	dec, err := oracle.NewDecoder(e.Info.Name)
	if err != nil {
		t.Fatal(err)
	}
	return &oracle.TaskContext{
		Engine:         e,
		Seed:           1,
		Queries:        100,
		StallThreshold: 8,
		Tables:         2,
		Rows:           12,
		Decoder:        dec,
		Report: func(f oracle.Finding) bool {
			*found = append(*found, f)
			return true
		},
	}
}

// setupCampaign builds a campaign over tc and applies its schema.
func setupCampaign(t *testing.T, tc *oracle.TaskContext) *campaign {
	t.Helper()
	c, err := newCampaign(tc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.setup(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCampaignPlanGuidance(t *testing.T) {
	var found []oracle.Finding
	tc := taskContext(t, dbms.MustNew("postgresql"), &found)
	tc.Queries, tc.Seed, tc.Rows = 120, 4, 10
	rep, err := TaskOracle{}.Run(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 0 {
		t.Errorf("pristine engine produced findings: %v", found)
	}
	if rep.DistinctPlans < 5 {
		t.Errorf("plan coverage too low: %d distinct plans", rep.DistinctPlans)
	}
	if rep.Mutations == 0 {
		t.Error("coverage stall never triggered a mutation — the QPG feedback loop is dead")
	}
}

func TestCampaignFindsInjectedDefect(t *testing.T) {
	e := dbms.MustNew("mysql")
	e.Quirks.LeftJoinAsInner = true
	var found []oracle.Finding
	tc := taskContext(t, e, &found)
	tc.Queries, tc.Seed, tc.MaxFindings = 200, 2, 1
	rep, err := TaskOracle{}.Run(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 {
		t.Fatalf("LEFT JOIN defect: %d findings, want exactly 1 under MaxFindings 1", len(found))
	}
	if found[0].Kind != oracle.KindLogic {
		t.Errorf("finding kind = %v", found[0].Kind)
	}
	if rep.Queries >= tc.Queries {
		t.Errorf("Queries = %d: MaxFindings must stop the task before its budget of %d", rep.Queries, tc.Queries)
	}
}

// TestMaxFindingsCountsNewOnly: a finding the task context reports as
// already known does not count toward MaxFindings.
func TestMaxFindingsCountsNewOnly(t *testing.T) {
	e := dbms.MustNew("mysql")
	e.Quirks.LeftJoinAsInner = true
	var found []oracle.Finding
	tc := taskContext(t, e, &found)
	tc.Queries, tc.Seed, tc.MaxFindings = 200, 2, 1
	tc.Report = func(f oracle.Finding) bool {
		found = append(found, f)
		return false
	}
	rep, err := TaskOracle{}.Run(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("LEFT JOIN defect not found")
	}
	if rep.Queries != tc.Queries {
		t.Errorf("Queries = %d, want the full budget %d when no finding is new", rep.Queries, tc.Queries)
	}
}

// TestDifferentialReportsReferenceError is the regression test for the
// asymmetric differential oracle: the reference engine failing where the
// target succeeds used to be silently dropped.
func TestDifferentialReportsReferenceError(t *testing.T) {
	var found []oracle.Finding
	tc := taskContext(t, dbms.MustNew("postgresql"), &found)
	tc.Tables, tc.Rows = 1, 4
	c := setupCampaign(t, tc)
	// Desynchronize the engines: a table only the target knows makes the
	// reference reject a query the target accepts.
	if _, err := c.engine.Execute("CREATE TABLE only_target (c0 INT)"); err != nil {
		t.Fatal(err)
	}
	c.checkDifferential("SELECT * FROM only_target")
	if len(found) != 1 {
		t.Fatalf("reference-only error must be reported, findings = %v", found)
	}
	f := found[0]
	if f.Kind != oracle.KindCrash {
		t.Errorf("kind = %v, want %v", f.Kind, oracle.KindCrash)
	}
	if !strings.Contains(f.Detail, "reference failed where target succeeded") {
		t.Errorf("detail = %q", f.Detail)
	}

	// The inverse asymmetry (target fails, reference succeeds) must still
	// be reported, and symmetric failures must not be.
	found = nil
	if _, err := c.reference.Execute("CREATE TABLE only_ref (c0 INT)"); err != nil {
		t.Fatal(err)
	}
	c.checkDifferential("SELECT * FROM only_ref")
	if len(found) != 1 || found[0].Kind != oracle.KindCrash {
		t.Fatalf("target-only error must be reported, findings = %v", found)
	}
	found = nil
	c.checkDifferential("SELECT * FROM neither_has_this")
	if len(found) != 0 {
		t.Errorf("symmetric failure is not a finding: %v", found)
	}
}

// TestObserverSeesPlans pins the orchestrator hook: every successfully
// converted plan flows through the task context's ObservePlan before
// being fingerprinted, on the arena-backed decode path.
func TestObserverSeesPlans(t *testing.T) {
	var found []oracle.Finding
	tc := taskContext(t, dbms.MustNew("postgresql"), &found)
	tc.Queries, tc.Rows = 25, 8
	observed := 0
	tc.ObservePlan = func(p *uplancore.Plan) bool {
		if p == nil || p.Root == nil {
			t.Error("observer received an invalid plan")
		}
		observed++
		return false
	}
	rep, err := TaskOracle{}.Run(tc)
	if err != nil {
		t.Fatal(err)
	}
	if observed == 0 {
		t.Error("observer never called")
	}
	if observed != rep.PlanQueries {
		t.Errorf("observed %d plans, task counted %d plan queries", observed, rep.PlanQueries)
	}
	if observed < rep.NewPlans {
		t.Errorf("observed %d plans < %d new fingerprints", observed, rep.NewPlans)
	}
}

// TestMutateReportsAnalyzeFailure is the regression test for the dropped
// Engine.Analyze/Reference.Analyze errors in mutate(): a statistics
// refresh that fails on one engine but not the other is exactly the
// asymmetric, CERT-relevant signal the campaign must report instead of
// silently comparing stale estimates.
func TestMutateReportsAnalyzeFailure(t *testing.T) {
	for _, side := range []string{"target", "reference"} {
		var found []oracle.Finding
		tc := taskContext(t, dbms.MustNew("sqlite"), &found)
		tc.Rows = 8
		c := setupCampaign(t, tc)
		// A catalog entry with no backing storage table makes AnalyzeAll
		// fail on exactly one engine.
		victim := c.engine
		if side == "reference" {
			victim = c.reference
		}
		if err := victim.DB.Schema.AddTable(&catalog.Table{Name: "ghost"}); err != nil {
			t.Fatal(err)
		}
		// Mutations may legitimately fail (unique violations) before the
		// ANALYZE step; a few attempts make the path deterministic.
		for i := 0; i < 8 && len(found) == 0; i++ {
			c.mutate()
		}
		ok := false
		for _, f := range found {
			if f.Kind == oracle.KindCrash && strings.Contains(f.Detail, "ANALYZE") {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s-side ANALYZE failure after mutation was not reported; findings: %v", side, found)
		}
	}
}
