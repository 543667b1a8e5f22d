// Command uplan-fuzz runs the paper's Table V campaign: QPG and CERT —
// both implemented once, DBMS-agnostically, over the unified plan
// representation — hunt the 17 injected defects in the simulated MySQL,
// PostgreSQL, and TiDB engines. Each bug is a one-task campaign run
// (bugs.RunOne) with the defect injected, stopped at its first finding.
//
// Usage:
//
//	uplan-fuzz [-seed 11] [-budget 350] [-bug 113302]
package main

import (
	"flag"
	"fmt"
	"os"

	"uplan/internal/bugs"
)

func main() {
	seed := flag.Int64("seed", 11, "generator seed")
	budget := flag.Int("budget", 350, "query budget per bug")
	bugID := flag.String("bug", "", "hunt a single bug ID (default: all of Table V)")
	flag.Parse()

	var results []bugs.CampaignResult
	if *bugID != "" {
		var target *bugs.Bug
		for i := range bugs.TableV {
			if bugs.TableV[i].ID == *bugID {
				target = &bugs.TableV[i]
			}
		}
		if target == nil {
			fmt.Fprintf(os.Stderr, "uplan-fuzz: unknown bug id %q\n", *bugID)
			os.Exit(2)
		}
		res, err := bugs.RunOne(*target, *seed, *budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uplan-fuzz:", err)
			os.Exit(1)
		}
		results = []bugs.CampaignResult{res}
	} else {
		var err error
		results, err = bugs.RunTableV(*seed, *budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uplan-fuzz:", err)
			os.Exit(1)
		}
	}

	found := 0
	fmt.Printf("%-12s %-8s %-8s %-10s %-12s %s\n",
		"DBMS", "Found by", "Bug ID", "Status", "Severity", "Result")
	for _, r := range results {
		mark := "missed"
		if r.Found {
			mark = "rediscovered"
			found++
		}
		fmt.Printf("%-12s %-8s %-8s %-10s %-12s %s\n",
			r.Bug.DBMS, r.Bug.FoundBy, r.Bug.ID, r.Bug.Status, r.Bug.Severity, mark)
		if r.Found {
			fmt.Printf("             evidence: %s\n", r.Evidence)
		}
	}
	fmt.Printf("\n%d/%d injected bugs rediscovered\n", found, len(results))
}
