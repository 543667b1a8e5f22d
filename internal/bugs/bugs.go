// Package bugs is the injected-defect corpus reproducing the paper's
// Table V: the 17 previously unknown, unique bugs that QPG and CERT (both
// implemented DBMS-agnostically over UPlan) found in MySQL, PostgreSQL,
// and TiDB. Live bug-finding against production systems is replaced by
// defects injected into the simulated engines — each Table V bug ID maps
// to one concrete optimizer/executor/estimator fault, and the campaign
// measures whether the DBMS-agnostic testers rediscover it (see DESIGN.md,
// substitution table).
package bugs

import (
	"fmt"
	"strings"

	"uplan/internal/campaign"
	"uplan/internal/dbms"
	"uplan/internal/planner"
)

// Bug is one Table V entry.
type Bug struct {
	DBMS     string // engine key
	FoundBy  string // "QPG" or "CERT"
	ID       string // tracker id from the paper
	Status   string
	Severity string
	// Description of the injected fault.
	Description string
	// Apply injects the fault into an engine.
	Apply func(e *dbms.Engine)
}

// TableV lists the 17 bugs in the paper's order.
var TableV = []Bug{
	{
		DBMS: "mysql", FoundBy: "QPG", ID: "113302", Status: "Confirmed", Severity: "Critical",
		Description: "index lookup truncates decimal IN-list probes without recheck (paper Listing 3)",
		Apply:       func(e *dbms.Engine) { e.Quirks.IndexProbeTruncatesFloats = true },
	},
	{
		DBMS: "mysql", FoundBy: "QPG", ID: "113304", Status: "Confirmed", Severity: "Critical",
		Description: "index range scan drops the inclusive lower boundary row",
		Apply:       func(e *dbms.Engine) { e.Quirks.IndexRangeSkipsBoundary = true },
	},
	{
		DBMS: "mysql", FoundBy: "QPG", ID: "113317", Status: "Confirmed", Severity: "Critical",
		Description: "NOT over a NULL condition evaluates to TRUE",
		Apply:       func(e *dbms.Engine) { e.Quirks.NotIgnoresNull = true },
	},
	{
		DBMS: "mysql", FoundBy: "QPG", ID: "114204", Status: "Confirmed", Severity: "Serious",
		Description: "LEFT JOIN executed as INNER JOIN, dropping unmatched rows",
		Apply:       func(e *dbms.Engine) { e.Quirks.LeftJoinAsInner = true },
	},
	{
		DBMS: "mysql", FoundBy: "QPG", ID: "114217", Status: "Confirmed", Severity: "Serious",
		Description: "DISTINCT removes all-NULL rows entirely",
		Apply:       func(e *dbms.Engine) { e.Quirks.DistinctDropsNulls = true },
	},
	{
		DBMS: "mysql", FoundBy: "QPG", ID: "114218", Status: "Confirmed", Severity: "Serious",
		Description: "OFFSET applied after LIMIT",
		Apply:       func(e *dbms.Engine) { e.Quirks.LimitAppliesOffsetAfter = true },
	},
	{
		DBMS: "mysql", FoundBy: "CERT", ID: "114237", Status: "Confirmed", Severity: "Performance",
		Description: "equality predicate multiplies the cardinality estimate instead of reducing it",
		Apply:       func(e *dbms.Engine) { e.Opts.Quirks.PredicateInflatesEstimate = 2500 },
	},
	{
		DBMS: "postgresql", FoundBy: "CERT", ID: "Email", Status: "Pending", Severity: "Performance",
		Description: "adding an equality predicate inflates the estimate on analyzed tables",
		Apply:       func(e *dbms.Engine) { e.Opts.Quirks.PredicateInflatesEstimate = 800 },
	},
	{
		DBMS: "tidb", FoundBy: "QPG", ID: "49107", Status: "Fixed", Severity: "Major",
		Description: "hash join misses numerically equal keys of different types (1 vs 1.0)",
		Apply: func(e *dbms.Engine) {
			e.Quirks.HashJoinMissesCrossKind = true
			e.Opts.Join = planner.JoinPreferHash
		},
	},
	{
		DBMS: "tidb", FoundBy: "QPG", ID: "49108", Status: "Confirmed", Severity: "Major",
		Description: "GROUP BY omits the NULL group",
		Apply:       func(e *dbms.Engine) { e.Quirks.AggDropsNullGroups = true },
	},
	{
		DBMS: "tidb", FoundBy: "QPG", ID: "49109", Status: "Fixed", Severity: "Major",
		Description: "EXCEPT keeps duplicate rows",
		Apply:       func(e *dbms.Engine) { e.Quirks.ExceptKeepsDuplicates = true },
	},
	{
		DBMS: "tidb", FoundBy: "QPG", ID: "49110", Status: "Confirmed", Severity: "Major",
		Description: "merge join drops its final key group",
		Apply: func(e *dbms.Engine) {
			e.Quirks.MergeJoinDropsLastGroup = true
			e.Opts.Join = planner.JoinPreferMerge
		},
	},
	{
		DBMS: "tidb", FoundBy: "QPG", ID: "49131", Status: "Confirmed", Severity: "Major",
		Description: "UPDATE evaluates later SET expressions against already-updated rows",
		Apply:       func(e *dbms.Engine) { e.Quirks.UpdateUsesUpdatedRow = true },
	},
	{
		DBMS: "tidb", FoundBy: "QPG", ID: "51490", Status: "Confirmed", Severity: "Moderate",
		Description: "index range scan drops the inclusive boundary under cop task split",
		Apply:       func(e *dbms.Engine) { e.Quirks.IndexRangeSkipsBoundary = true },
	},
	{
		DBMS: "tidb", FoundBy: "QPG", ID: "51523", Status: "Confirmed", Severity: "Moderate",
		Description: "float index probes truncated during IndexLookUp",
		Apply:       func(e *dbms.Engine) { e.Quirks.IndexProbeTruncatesFloats = true },
	},
	{
		DBMS: "tidb", FoundBy: "CERT", ID: "51524", Status: "Confirmed", Severity: "Minor",
		Description: "equality predicates inflate estimated rows past the table cardinality",
		Apply:       func(e *dbms.Engine) { e.Opts.Quirks.PredicateInflatesEstimate = 1200 },
	},
	{
		DBMS: "tidb", FoundBy: "CERT", ID: "51525", Status: "Confirmed", Severity: "Minor",
		Description: "range selectivity floored above 1, inflating range-predicate estimates",
		Apply: func(e *dbms.Engine) {
			e.Opts.Quirks.RangeSelectivityFloor = 1.5
			e.Opts.Quirks.IgnoreHistogram = true
		},
	},
}

// CampaignResult records whether a bug was rediscovered.
type CampaignResult struct {
	Bug      Bug
	Found    bool
	Evidence string
	// QueriesRun is how many generated queries the task processed: the
	// queries to the first finding when the bug was found, the whole
	// budget otherwise.
	QueriesRun int
}

// RunTableV runs the QPG/CERT campaign for every Table V bug: each bug is
// injected into a fresh engine of its DBMS, and the matching
// DBMS-agnostic tester runs until it rediscovers the defect or exhausts
// the budget.
func RunTableV(seed int64, queryBudget int) ([]CampaignResult, error) {
	var results []CampaignResult
	for _, bug := range TableV {
		res, err := RunOne(bug, seed, queryBudget)
		if err != nil {
			return nil, fmt.Errorf("bugs: %s/%s: %w", bug.DBMS, bug.ID, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// RunOne hunts a single injected bug: a one-task campaign of the oracle
// that found it, on its DBMS with the defect injected, stopped at the
// first finding. A bug whose Apply is nil runs the same task on a
// pristine engine, the control for the injected run.
func RunOne(bug Bug, seed int64, queryBudget int) (CampaignResult, error) {
	opts := campaign.DefaultOptions()
	opts.Engines = []string{bug.DBMS}
	opts.Oracles = []campaign.Oracle{strings.ToLower(bug.FoundBy)}
	opts.Queries = queryBudget
	opts.Seed = seed
	opts.MaxFindings = 1
	opts.Workers = 1
	opts.Inject = bug.Apply
	res, err := campaign.Run(opts)
	if err != nil {
		return CampaignResult{}, err
	}
	out := CampaignResult{Bug: bug, QueriesRun: res.Stats.Queries}
	if len(res.Findings) > 0 {
		out.Found = true
		out.Evidence = res.Findings[0].String()
	}
	return out, nil
}
