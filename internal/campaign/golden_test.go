package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// outcomeDigest is the SHA-256 of a campaign's canonical outcome: every
// finding in canonical order, then every deterministic Stats counter —
// totals, per engine and per oracle. Elapsed and the rates derived from it
// are wall-clock and left out.
func outcomeDigest(res *Result) string {
	h := sha256.New()
	for _, f := range res.Findings {
		fmt.Fprintf(h, "finding %q %q %q %q %q\n", f.Engine, f.Oracle, f.Kind, f.Query, f.Detail)
	}
	s := res.Stats
	fmt.Fprintf(h, "total queries=%d statements=%d findings=%d plans=%d\n",
		s.Queries, s.Statements, s.Findings, s.DistinctPlans)
	for _, es := range s.ByEngine() {
		fmt.Fprintf(h, "engine %s queries=%d statements=%d planqueries=%d newplans=%d plans=%d mutations=%d checks=%d skipped=%d findings=%d kinds=%v\n",
			es.Engine, es.Queries, es.Statements, es.PlanQueries, es.NewPlans, es.DistinctPlans,
			es.Mutations, es.Checks, es.Skipped, es.Findings, es.ByKind)
	}
	for _, os := range s.ByOracle() {
		fmt.Fprintf(h, "oracle %s queries=%d statements=%d planqueries=%d newplans=%d plans=%d mutations=%d checks=%d skipped=%d findings=%d kinds=%v extra=%v\n",
			os.Oracle, os.Queries, os.Statements, os.PlanQueries, os.NewPlans, os.DistinctPlans,
			os.Mutations, os.Checks, os.Skipped, os.Findings, os.ByKind, os.Extra)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCampaignGoldenDigest pins what the fleet finds and counts for
// DefaultOptions at seeds 1-3, and for the injected-defect configuration
// the determinism test uses, whose logic findings carry TLP and
// differential mismatch text. A performance change must never move these
// digests: a new digest means the campaign's behaviour changed.
func TestCampaignGoldenDigest(t *testing.T) {
	seeded := func(seed int64) Options {
		opts := DefaultOptions()
		opts.Seed = seed
		return opts
	}
	for _, tc := range []struct {
		name   string
		opts   Options
		digest string
	}{
		{"default/seed1", seeded(1), "64d6937eeccb9e50608b75fa25ea13c88613ed6df889631678cc171c65f0d40e"},
		{"default/seed2", seeded(2), "0b412efc7f99576aed1f57667469406c577eb8a6abd5db4c8c4213869f900357"},
		{"default/seed3", seeded(3), "2182dc2eb1fca64922df1b399f3b49088627b00ece673d4f0d754dcb19343515"},
		{"injected/seed3", testOptions(1), "59c0bf4293365e1d557e7b345cd8bfbba2ad0609f1c1df389d283dbae631da57"},
	} {
		res, err := Run(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := outcomeDigest(res); got != tc.digest {
			t.Errorf("%s: outcome digest %s, want %s (%d findings, %d queries, %d statements)",
				tc.name, got, tc.digest, res.Stats.Findings, res.Stats.Queries, res.Stats.Statements)
		}
	}
}
