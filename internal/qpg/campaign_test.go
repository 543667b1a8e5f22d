package qpg_test

import (
	"testing"

	"uplan/internal/campaign"
	"uplan/internal/dbms"
)

// TestFindingsDeduplicated: QPG emits every finding as it occurs, and the
// campaign store's per-task dedup is the only one. A long run against a
// defect that trips the oracles over and over must still yield each
// (kind, detail) once.
func TestFindingsDeduplicated(t *testing.T) {
	opts := campaign.DefaultOptions()
	opts.Engines = []string{"tidb"}
	opts.Oracles = []campaign.Oracle{campaign.OracleQPG}
	opts.Queries = 250
	opts.Seed = 6
	opts.MaxFindings = 50
	opts.Workers = 1
	opts.Inject = func(e *dbms.Engine) { e.Quirks.NotIgnoresNull = true }
	res, err := campaign.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("NOT-over-NULL defect not found — the dedup check is vacuous")
	}
	seen := map[string]bool{}
	for _, f := range res.Findings {
		key := string(f.Kind) + "|" + f.Detail
		if seen[key] {
			t.Fatalf("duplicate finding: %v", f)
		}
		seen[key] = true
	}
}
