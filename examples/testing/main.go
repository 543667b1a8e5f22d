// Testing: the paper's Figure 2 architecture — QPG and CERT implemented
// once, DBMS-agnostically over the unified plan representation, and run
// by one campaign runner against any engine. This example hunts the
// paper's Listing 3 bug over a fixed seed range, runs QPG for plan
// coverage on a pristine engine, and lets CERT flag an injected
// estimator defect.
package main

import (
	"fmt"
	"log"

	"uplan/internal/bugs"
	"uplan/internal/campaign"
	"uplan/internal/dbms"
)

func main() {
	// Part 1: QPG hunts the paper's Listing 3 bug (MySQL #113302), an
	// index lookup that truncates decimal probe values, over seeds 1-10.
	fmt.Println("== QPG over UPlan: hunting MySQL #113302 (Listing 3), seeds 1-10 ==")
	var listing3 bugs.Bug
	for _, b := range bugs.TableV {
		if b.ID == "113302" {
			listing3 = b
		}
	}
	found := 0
	for seed := int64(1); seed <= 10; seed++ {
		res, err := bugs.RunOne(listing3, seed, 350)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Found {
			fmt.Printf("seed %2d: missed in %d queries\n", seed, res.QueriesRun)
			continue
		}
		found++
		fmt.Printf("seed %2d: found after %d queries\n", seed, res.QueriesRun)
		if found == 1 {
			fmt.Printf("         evidence: %s\n", res.Evidence)
		}
	}
	fmt.Printf("rediscovered on %d of 10 seeds\n", found)

	// Part 2: the same QPG code drives a coverage campaign on a pristine
	// TiDB engine — no findings, but plan-guided exploration.
	fmt.Println("\n== QPG coverage on a pristine TiDB engine ==")
	opts := campaign.DefaultOptions()
	opts.Engines = []string{"tidb"}
	opts.Oracles = []campaign.Oracle{campaign.OracleQPG}
	opts.Queries = 150
	res, err := campaign.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	es := res.Stats.Engines["tidb"]
	fmt.Printf("queries: %d, distinct unified plans: %d, mutations: %d, findings: %d\n",
		es.Queries, es.DistinctPlans, es.Mutations, es.Findings)

	// Part 3: CERT reads cardinality estimates through the unified plan
	// and flags a restriction that increased the estimate.
	fmt.Println("\n== CERT over UPlan: estimate monotonicity on PostgreSQL ==")
	opts = campaign.DefaultOptions()
	opts.Engines = []string{"postgresql"}
	opts.Oracles = []campaign.Oracle{campaign.OracleCERT}
	opts.Inject = func(e *dbms.Engine) {
		e.Opts.Quirks.PredicateInflatesEstimate = 800 // injected defect
	}
	res, err = campaign.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checked %d pairs, %d violations\n",
		res.Stats.Oracles[campaign.OracleCERT].Checks, len(res.Findings))
	if len(res.Findings) > 0 {
		fmt.Println("first violation:", res.Findings[0])
	}
}
