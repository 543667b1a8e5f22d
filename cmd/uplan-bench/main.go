// Command uplan-bench regenerates the paper's benchmarking artifacts
// (application A.3): Table VI (TPC-H operation counts across five DBMSs),
// Table VII (YCSB on MongoDB, WDBench on Neo4j), Figure 4 (Producer-count
// variance per query), and the Listing 4 q11 analysis. It also runs the
// bug-finding campaign.
//
// Usage:
//
//	uplan-bench [-seed 42] [-experiment all|table6|table7|figure4|q11|campaign]
//	            [-parallel N] [-queries N] [-oracles LIST]
//	            [-store DIR] [-resume] [-checkpoint-every N]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// -experiment campaign fans every registered testing oracle (QPG, CERT,
// TLP, and the cardinality-bounds oracle; -oracles selects a subset)
// across all nine simulated engines on a -parallel-bounded worker pool
// (0 means one worker per core) with a -queries budget per engine/oracle
// task, printing per-engine and per-oracle stats and the deduplicated
// findings. The finding set depends only on -seed, never on -parallel.
//
// -store DIR journals the campaign through the durable plan-and-finding
// log (internal/store): every plan fingerprint, finding, and per-task
// checkpoint survives a crash at any byte. SIGINT/SIGTERM cancel the run
// cooperatively — workers stop at the next query boundary, the final
// state is flushed, partial stats print, and the process exits 0. A
// second SIGINT/SIGTERM during that graceful checkpoint forces an
// immediate exit with status 3 (internal/shutdown), so a checkpoint hung
// on sick storage can always be abandoned deliberately.
// -resume continues an interrupted campaign from DIR: finished tasks are
// skipped, the rest re-run, and the combined outcome is byte-identical
// to an uninterrupted run. -checkpoint-every N bounds mid-task loss.
//
// -cpuprofile / -memprofile write pprof profiles covering whichever
// experiments ran, so hot-path regressions can be diagnosed with
// `go tool pprof` straight from this binary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"uplan/internal/bench"
	"uplan/internal/campaign"
	"uplan/internal/shutdown"
	"uplan/internal/store"
)

// experiments are the -experiment values main knows.
var experiments = []string{"all", "table6", "table7", "figure4", "q11", "campaign"}

// checkExperiment rejects an -experiment value main does not know, which
// would otherwise run nothing and exit 0.
func checkExperiment(name string) error {
	if slices.Contains(experiments, name) {
		return nil
	}
	return fmt.Errorf("unknown -experiment %q (want one of: %s)", name, strings.Join(experiments, ", "))
}

func main() {
	seed := flag.Int64("seed", 42, "data generator seed")
	experiment := flag.String("experiment", "all", "experiment: "+strings.Join(experiments, ", "))
	parallel := flag.Int("parallel", 0, "campaign experiment: task pool bound (0 = GOMAXPROCS)")
	queries := flag.Int("queries", 100, "campaign experiment: generated-query budget per engine/oracle task")
	storeDir := flag.String("store", "", "campaign experiment: journal plans, findings, and checkpoints to this durable log directory")
	resume := flag.Bool("resume", false, "campaign experiment: resume an interrupted campaign from the -store directory")
	checkpointEvery := flag.Int("checkpoint-every", 50, "campaign experiment: queries between mid-task durability checkpoints (0 = task boundaries only)")
	oracles := flag.String("oracles", "", "campaign experiment: comma-separated oracle subset (default: all registered; e.g. qpg,cert,tlp,bounds)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiments to FILE")
	memprofile := flag.String("memprofile", "", "write an allocation profile to FILE on exit")
	flag.Parse()
	if err := checkExperiment(*experiment); err != nil {
		fmt.Fprintln(os.Stderr, "uplan-bench:", err)
		os.Exit(2)
	}

	run := func(name string) bool { return *experiment == "all" || *experiment == name }
	// flushProfiles finalizes -cpuprofile/-memprofile. It runs both on the
	// normal return path and from fail(): os.Exit skips defers, and a
	// diagnostic run that dies mid-experiment is exactly when a valid
	// profile matters most.
	flushed := false
	var cpuFile *os.File // owned by flushProfiles; closing before StopCPUProfile would drop the flush
	flushProfiles := func() {
		if flushed {
			return
		}
		flushed = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "uplan-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "uplan-bench:", err)
			}
		}
	}
	defer flushProfiles()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "uplan-bench:", err)
		flushProfiles()
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail(err)
		}
		cpuFile = f
	}
	// The campaign experiment is explicit-only: a nine-engine
	// bug-hunting fan-out is a workload of its own, not one of the
	// paper's tabulated artifacts, so "all" does not imply it.
	if *experiment == "campaign" {
		copts := campaign.DefaultOptions()
		copts.Seed = *seed
		copts.Workers = *parallel
		copts.Queries = *queries
		if *oracles != "" {
			for _, name := range strings.Split(*oracles, ",") {
				copts.Oracles = append(copts.Oracles, strings.TrimSpace(name))
			}
		}
		if *resume && *storeDir == "" {
			fail(fmt.Errorf("-resume requires -store DIR"))
		}
		if *storeDir != "" {
			log, err := store.Open(*storeDir, store.Options{})
			if err != nil {
				fail(err)
			}
			copts.Store = log
			copts.Resume = *resume
			copts.CheckpointEvery = *checkpointEvery
			defer func() {
				if err := log.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "uplan-bench:", err)
				}
			}()
			if *resume {
				rec := log.Recovered()
				fmt.Printf("resuming from %s: %d plans, %d findings, %d checkpointed tasks recovered",
					*storeDir, len(rec.Plans), len(rec.Findings), len(rec.Progress))
				if rec.Truncated > 0 {
					fmt.Printf(" (%d torn frame(s), %d byte(s) truncated)", rec.Truncated, rec.DroppedBytes)
				}
				fmt.Println()
			}
		}
		// A signal cancels the run cooperatively: workers stop at the next
		// query boundary, everything journaled so far is synced, and the
		// partial stats below still print — the run is interrupted, not
		// lost, and -resume picks it up where it stopped. A second signal
		// during that graceful checkpoint (store sync/close hung on sick
		// storage, say) forces an immediate exit with a distinct status.
		ctx, notifier := shutdown.Install(context.Background(),
			func(msg string) { fmt.Fprintln(os.Stderr, "uplan-bench:", msg) })
		defer notifier.Stop()
		copts.Context = ctx
		res, err := campaign.Run(copts)
		interrupted := errors.Is(err, context.Canceled)
		if err != nil && !interrupted {
			fail(err)
		}
		if interrupted {
			fmt.Printf("== Campaign interrupted (state saved%s) — partial results ==\n",
				map[bool]string{true: " to " + *storeDir, false: ""}[*storeDir != ""])
		}
		fmt.Printf("== Campaign: %d engines x %d oracles, %d queries per task, seed %d ==\n",
			len(res.Stats.Engines), len(res.Stats.Oracles), *queries, *seed)
		fmt.Print(res.Stats)
		fmt.Printf("findings (%d, deduplicated, canonical order):\n", len(res.Findings))
		for _, f := range res.Findings {
			fmt.Println("  " + f.String())
		}
	}

	if run("table6") || run("figure4") {
		reports, err := bench.RunTableVI(*seed)
		if err != nil {
			fail(err)
		}
		if run("table6") {
			fmt.Println("== Table VI: average operations per category (TPC-H) ==")
			fmt.Print(bench.FormatCategoryTable(reports))
			fmt.Println()
		}
		if run("figure4") {
			vs := bench.ProducerVariance(reports)
			fmt.Println("== Figure 4: Producer-count variance per TPC-H query ==")
			fmt.Print(bench.FormatVarianceSeries(vs))
			fmt.Printf("high variance (>5): q%v\n\n", bench.HighVarianceQueries(vs, 5))
		}
	}
	if run("table7") {
		reports, err := bench.RunTableVII(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println("== Table VII: YCSB (MongoDB) and WDBench (Neo4j) ==")
		fmt.Print(bench.FormatCategoryTable(reports))
		fmt.Println()
	}
	if run("q11") {
		a, err := bench.RunQ11(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println("== Listing 4 / q11 analysis ==")
		fmt.Println("--- PostgreSQL (unified) ---")
		fmt.Print(a.PostgresPlan.MarshalIndentedText())
		fmt.Println("--- TiDB (unified) ---")
		fmt.Print(a.TiDBPlan.MarshalIndentedText())
		fmt.Printf("full table scans: postgresql=%d tidb=%d\n", a.PGScans, a.TiDBScans)
		fmt.Printf("redundant scan time: %.3f ms of %.3f ms (%.0f%%)\n",
			a.RedundantMS, a.TotalMS, a.SavingsFraction()*100)
	}
}
