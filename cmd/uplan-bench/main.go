// Command uplan-bench regenerates the paper's benchmarking artifacts
// (application A.3): Table VI (TPC-H operation counts across five DBMSs),
// Table VII (YCSB on MongoDB, WDBench on Neo4j), Figure 4 (Producer-count
// variance per query), and the Listing 4 q11 analysis. The batch
// experiment measures conversion throughput of the mixed nine-dialect
// corpus, sequentially or through the concurrent pipeline.
//
// Usage:
//
//	uplan-bench [-seed 42] [-experiment all|table6|table7|figure4|q11|batch|text|campaign|codec]
//	            [-parallel N] [-iters N] [-queries N] [-out FILE]
//	            [-store DIR] [-resume] [-checkpoint-every N]
//	            [-pack FILE] [-unpack FILE]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// -parallel N runs the batch experiment through the conversion pipeline
// with N workers and reports the speedup over the sequential one-shot
// path; -parallel 0 (the default) reports the sequential path only.
// -out FILE additionally writes the batch experiment's throughput and
// speedup numbers as JSON (see BENCH_batch.json for the committed
// snapshots that record the perf trajectory across PRs).
//
// -experiment text measures each dialect's text-format converter
// trajectory — the one-shot path against a reused arena — over -iters
// conversions per dialect, reporting ns/plan and allocs/plan.
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
// -experiment codec packs the converted corpus into the compact binary
// plan format (internal/codec), compares the packed size against the
// JSON serialization, and measures decode throughput three ways: fresh
// allocations per plan, one continuously reused arena, and the streaming
// JSON reference path. -pack FILE keeps the packed corpus on disk;
// -unpack FILE decodes and summarizes an existing packed corpus instead
// of benchmarking. -iters sets the full-corpus passes per decode path;
// -out writes the run as JSON (see BENCH_batch.json's uplan_codec
// snapshots).
//
// -cpuprofile / -memprofile write pprof profiles covering whichever
// experiments ran, so hot-path regressions can be diagnosed with
// `go tool pprof` straight from this binary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"uplan/internal/bench"
	"uplan/internal/campaign"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/pipeline"
	"uplan/internal/shutdown"
	"uplan/internal/store"
)

// batchResult is the machine-readable outcome of the batch experiment,
// written by -out.
type batchResult struct {
	Experiment    string  `json:"experiment"`
	Seed          int64   `json:"seed"`
	CorpusRecords int     `json:"corpus_records"`
	Sequential    pathRun `json:"sequential"`
	Cached        pathRun `json:"sequential_cached"`
	// Pipeline is present when -parallel > 0. Workers is the requested
	// count; WorkersEffective is what ConvertBatch actually ran after
	// its GOMAXPROCS clamp — on a 1-CPU runner the two routinely differ.
	Pipeline         *pipeline.Report `json:"pipeline,omitempty"`
	Workers          int              `json:"workers,omitempty"`
	WorkersEffective int              `json:"workers_effective,omitempty"`
	ChunkSize        int              `json:"chunk_size,omitempty"`
	SpeedupVsSeq     float64          `json:"speedup_vs_sequential,omitempty"`
	SpeedupVsCached  float64          `json:"speedup_vs_sequential_cached,omitempty"`
}

// pathRun records one conversion strategy's throughput.
type pathRun struct {
	Plans       int     `json:"plans"`
	Seconds     float64 `json:"seconds"`
	PlansPerSec float64 `json:"plans_per_sec"`
}

// experiments are the -experiment values main knows.
var experiments = []string{"all", "table6", "table7", "figure4", "q11", "batch", "text", "campaign", "codec"}

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
	parallel := flag.Int("parallel", 0, "batch: pipeline worker count (0 = sequential only); campaign: task pool bound (0 = GOMAXPROCS)")
	chunk := flag.Int("chunk", 0, "batch experiment: records per pipeline dispatch chunk (0 = default)")
	iters := flag.Int("iters", 2000, "text experiment: conversions per dialect per path")
	queries := flag.Int("queries", 100, "campaign experiment: generated-query budget per engine/oracle task")
	storeDir := flag.String("store", "", "campaign experiment: journal plans, findings, and checkpoints to this durable log directory")
	resume := flag.Bool("resume", false, "campaign experiment: resume an interrupted campaign from the -store directory")
	checkpointEvery := flag.Int("checkpoint-every", 50, "campaign experiment: queries between mid-task durability checkpoints (0 = task boundaries only)")
	oracles := flag.String("oracles", "", "campaign experiment: comma-separated oracle subset (default: all registered; e.g. qpg,cert,tlp,bounds)")
	out := flag.String("out", "", "batch experiment: write machine-readable JSON results to FILE")
	pack := flag.String("pack", "", "codec experiment: keep the packed binary corpus at FILE")
	unpack := flag.String("unpack", "", "codec experiment: decode and summarize an existing packed corpus instead of benchmarking")
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
	if *out != "" && !run("batch") && *experiment != "codec" {
		fail(fmt.Errorf("-out only applies to the batch and codec experiments (got -experiment %s)", *experiment))
	}
	if (*pack != "" || *unpack != "") && *experiment != "codec" {
		fail(fmt.Errorf("-pack/-unpack only apply to the codec experiment (got -experiment %s)", *experiment))
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
	// The campaign experiment is explicit-only, like text: a nine-engine
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
	// The codec experiment is explicit-only as well: a serialization
	// microbenchmark, not one of the paper's artifacts.
	if *experiment == "codec" {
		if *unpack != "" {
			if err := runCodecUnpack(*unpack); err != nil {
				fail(err)
			}
		} else {
			if *iters <= 0 {
				fail(fmt.Errorf("-iters must be positive (got %d)", *iters))
			}
			if err := runCodecExperiment(*seed, *iters, *pack, *out); err != nil {
				fail(err)
			}
		}
	}
	// The text experiment is explicit-only: it is a microbenchmark loop,
	// not one of the paper's artifacts, so "all" does not imply it.
	if *experiment == "text" {
		if *iters <= 0 {
			fail(fmt.Errorf("-iters must be positive (got %d)", *iters))
		}
		if err := runTextExperiment(*seed, *iters); err != nil {
			fail(err)
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
	if run("batch") {
		corpus, err := bench.Corpus(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("== Batch conversion: %d-record mixed nine-dialect corpus ==\n", len(corpus))
		result := batchResult{
			Experiment:    "batch",
			Seed:          *seed,
			CorpusRecords: len(corpus),
		}

		// Sequential baseline: the one-shot path, which builds a fresh
		// registry-backed converter for every record.
		start := time.Now()
		for _, r := range corpus {
			if _, err := convert.Convert(r.Dialect, r.Serialized); err != nil {
				fail(err)
			}
		}
		seqElapsed := time.Since(start)
		seqRate := float64(len(corpus)) / seqElapsed.Seconds()
		result.Sequential = pathRun{len(corpus), seqElapsed.Seconds(), seqRate}
		fmt.Printf("sequential: %d plans in %.3fs (%.0f plans/s)\n",
			len(corpus), seqElapsed.Seconds(), seqRate)

		// Cached path: one shared converter per dialect, the facade's
		// single-plan fast path.
		start = time.Now()
		for _, r := range corpus {
			c, err := convert.Cached(r.Dialect)
			if err != nil {
				fail(err)
			}
			if _, err := c.Convert(r.Serialized); err != nil {
				fail(err)
			}
		}
		cachedElapsed := time.Since(start)
		cachedRate := float64(len(corpus)) / cachedElapsed.Seconds()
		result.Cached = pathRun{len(corpus), cachedElapsed.Seconds(), cachedRate}
		fmt.Printf("sequential-cached: %d plans in %.3fs (%.0f plans/s)\n",
			len(corpus), cachedElapsed.Seconds(), cachedRate)

		if *parallel > 0 {
			if *chunk <= 0 {
				*chunk = pipeline.DefaultChunkSize
			}
			popts := pipeline.Options{Workers: *parallel, ChunkSize: *chunk}
			results, stats := pipeline.ConvertBatch(corpus, popts)
			for _, r := range results {
				if r.Err != nil {
					fail(r.Err)
				}
			}
			effective := *parallel
			if n := runtime.GOMAXPROCS(0); effective > n {
				effective = n
			}
			fmt.Printf("pipeline (%d workers requested, %d effective, chunk %d):\n%s",
				*parallel, effective, popts.ChunkSize, stats)
			fmt.Printf("speedup over sequential: %.2fx\n", stats.PlansPerSec()/seqRate)
			report := stats.Report()
			result.Pipeline = &report
			result.Workers = *parallel
			result.WorkersEffective = effective
			result.ChunkSize = popts.ChunkSize
			result.SpeedupVsSeq = stats.PlansPerSec() / seqRate
			result.SpeedupVsCached = stats.PlansPerSec() / cachedRate
		}
		if *out != "" {
			data, err := json.MarshalIndent(result, "", "  ")
			if err != nil {
				fail(err)
			}
			data = append(data, '\n')
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *out)
		}
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

// runTextExperiment measures every text-dialect converter through the
// one-shot path and through a reused arena, reporting ns/plan and
// allocs/plan so the text-path trajectory is trackable like the batch
// path's.
func runTextExperiment(seed int64, iters int) error {
	samples, err := bench.TextSamples(seed)
	if err != nil {
		return err
	}
	fmt.Printf("== Text converters: %d conversions per dialect per path ==\n", iters)
	fmt.Printf("%-14s %12s %12s %14s %14s %9s\n",
		"dialect", "oneshot ns", "reuse ns", "oneshot allocs", "reuse allocs", "speedup")
	measure := func(fn func()) (nsPerOp float64, allocsPerOp float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return float64(elapsed.Nanoseconds()) / float64(iters),
			float64(after.Mallocs-before.Mallocs) / float64(iters)
	}
	for _, s := range samples {
		conv, err := convert.Cached(s.Dialect)
		if err != nil {
			return err
		}
		if _, err := conv.Convert(s.Raw); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		//lint:allow oracleerr timed closure; the same conversion was validated just above
		oneNs, oneAllocs := measure(func() { conv.Convert(s.Raw) })
		ar := core.NewPlanArena()
		// Validate the arena path too before timing it: a failing path
		// measures its error return and reports a bogus speedup.
		if _, err := convert.ConvertInto(s.Dialect, s.Raw, ar); err != nil {
			return fmt.Errorf("%s (arena path): %w", s.Name, err)
		}
		ar.Reset()
		reuseNs, reuseAllocs := measure(func() {
			//lint:allow oracleerr timed closure; the arena path was validated just above
			convert.ConvertInto(s.Dialect, s.Raw, ar)
			ar.Reset()
		})
		fmt.Printf("%-14s %12.0f %12.0f %14.1f %14.1f %8.2fx\n",
			s.Name, oneNs, reuseNs, oneAllocs, reuseAllocs, oneNs/reuseNs)
	}
	return nil
}
