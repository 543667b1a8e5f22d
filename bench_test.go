// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// paper-vs-measured results). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints its artifact once and then times the underlying
// pipeline.
package uplan

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"uplan/internal/bench"
	"uplan/internal/bugs"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/viz"
)

var printOnce sync.Map

func printHeader(b *testing.B, name, artifact string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, artifact)
	}
}

// BenchmarkTableI_StudiedDBMSs regenerates Table I: the nine studied DBMSs.
func BenchmarkTableI_StudiedDBMSs(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		out += fmt.Sprintf("%-12s %-14s %-12s %-8s %-5s\n", "DBMS", "Version", "Data Model", "Release", "Rank")
		for _, info := range dbms.Infos {
			out += fmt.Sprintf("%-12s %-14s %-12s %-8d %-5d\n",
				info.Display, info.Version, info.DataModel, info.Release, info.Rank)
		}
	}
	printHeader(b, "Table I — studied DBMSs", out)
}

// BenchmarkTableII_Vocabulary regenerates Table II: operations and
// properties per category for each DBMS's plan representation.
func BenchmarkTableII_Vocabulary(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = fmt.Sprintf("%-12s %5s %5s %5s %6s %5s %5s %5s %5s | %5s %5s %7s %7s %5s\n",
			"DBMS", "Prod", "Comb", "Join", "Folder", "Proj", "Exec", "Cons", "Sum",
			"Card", "Cost", "Config", "Status", "Sum")
		for _, info := range dbms.Infos {
			v, _ := dbms.VocabularyFor(info.Name)
			oc := v.OperationCount()
			pc := v.PropertyCount()
			out += fmt.Sprintf("%-12s %5d %5d %5d %6d %5d %5d %5d %5d | %5d %5d %7d %7d %5d\n",
				info.Display,
				oc[core.Producer], oc[core.Combinator], oc[core.Join], oc[core.Folder],
				oc[core.Projector], oc[core.Executor], oc[core.Consumer], v.OperationTotal(),
				pc[core.Cardinality], pc[core.Cost], pc[core.Configuration], pc[core.Status],
				v.PropertyTotal())
		}
	}
	printHeader(b, "Table II — operations and properties per representation", out)
}

// BenchmarkTableIII_Formats regenerates Table III: officially supported
// serialization formats per DBMS.
func BenchmarkTableIII_Formats(b *testing.B) {
	all := []explain.Format{explain.FormatGraph, explain.FormatText,
		explain.FormatTable, explain.FormatJSON, explain.FormatXML, explain.FormatYAML}
	var out string
	for i := 0; i < b.N; i++ {
		out = fmt.Sprintf("%-12s %-6s %-5s %-6s %-5s %-4s %-5s\n",
			"DBMS", "Graph", "Text", "Table", "JSON", "XML", "YAML")
		for _, info := range dbms.Infos {
			row := fmt.Sprintf("%-12s", info.Display)
			supported := map[explain.Format]bool{}
			for _, f := range dbms.Formats[info.Name] {
				supported[f] = true
			}
			for _, f := range all {
				mark := ""
				if supported[f] {
					mark = "Y"
				}
				row += fmt.Sprintf(" %-5s", mark)
			}
			out += row + "\n"
		}
	}
	printHeader(b, "Table III — supported formats", out)
}

// BenchmarkTableIV_VizTools regenerates Table IV: the third-party
// visualization tools of the study, alongside what this repository's
// unified renderer replaces them with.
func BenchmarkTableIV_VizTools(b *testing.B) {
	tools := []struct{ tool, dbs, license string }{
		{"Postgres Explain Visualizer 2", "PostgreSQL", "Open-source"},
		{"pgmustard", "PostgreSQL", "Commercial"},
		{"pganalyze", "PostgreSQL", "Commercial"},
		{"ApexSQL", "SQL Server", "Commercial"},
		{"Plan Explorer", "SQL Server", "Commercial"},
		{"Azure Data Studio", "SQL Server", "Commercial"},
		{"Dbvisualizer", "MySQL, PostgreSQL, SQL Server", "Commercial"},
		{"internal/viz (this repo)", "all nine via UPlan", "Open-source"},
	}
	var out string
	for i := 0; i < b.N; i++ {
		out = fmt.Sprintf("%-32s %-32s %s\n", "Tool", "DBMSs", "License")
		for _, t := range tools {
			out += fmt.Sprintf("%-32s %-32s %s\n", t.tool, t.dbs, t.license)
		}
	}
	printHeader(b, "Table IV — visualization tools", out)
}

// BenchmarkTableV_BugCampaign regenerates Table V: the QPG/CERT campaign
// over the 17 injected defects.
func BenchmarkTableV_BugCampaign(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		results, err := bugs.RunTableV(11, 350)
		if err != nil {
			b.Fatal(err)
		}
		found := 0
		out = fmt.Sprintf("%-12s %-8s %-8s %-10s %-12s %s\n",
			"DBMS", "Found by", "Bug ID", "Status", "Severity", "Rediscovered")
		for _, r := range results {
			mark := "no"
			if r.Found {
				mark = "yes"
				found++
			}
			info, _ := dbms.InfoFor(r.Bug.DBMS)
			out += fmt.Sprintf("%-12s %-8s %-8s %-10s %-12s %s\n",
				info.Display, r.Bug.FoundBy, r.Bug.ID, r.Bug.Status, r.Bug.Severity, mark)
		}
		out += fmt.Sprintf("rediscovered %d/17 injected bugs (paper: 17 found in 24h)\n", found)
	}
	printHeader(b, "Table V — bugs found by QPG/CERT over UPlan", out)
}

// BenchmarkTableVI_TPCH regenerates Table VI: average operations per
// category for TPC-H plans across five DBMSs.
func BenchmarkTableVI_TPCH(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		reports, err := bench.RunTableVI(42)
		if err != nil {
			b.Fatal(err)
		}
		out = bench.FormatCategoryTable(reports)
	}
	printHeader(b, "Table VI — avg operations per category (TPC-H)", out)
}

// BenchmarkTableVII_YCSB_WDBench regenerates Table VII: YCSB plans on
// MongoDB and WDBench plans on Neo4j.
func BenchmarkTableVII_YCSB_WDBench(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		reports, err := bench.RunTableVII(42)
		if err != nil {
			b.Fatal(err)
		}
		out = bench.FormatCategoryTable(reports)
	}
	printHeader(b, "Table VII — avg operations (YCSB on MongoDB, WDBench on Neo4j)", out)
}

// BenchmarkFigure1_Neo4jPlan regenerates Figure 1: a Neo4j relationship
// scan plan in the native table format.
func BenchmarkFigure1_Neo4jPlan(b *testing.B) {
	e := dbms.MustNew("neo4j")
	for _, s := range []string{
		"CREATE TABLE rel (src INT, dst INT, title TEXT)",
		"INSERT INTO rel VALUES (1, 2, 'developer'), (2, 3, 'designer'), (3, 4, 'web developer')",
	} {
		if _, err := e.Execute(s); err != nil {
			b.Fatal(err)
		}
	}
	q := "SELECT r.src FROM rel r INNER JOIN rel r2 ON r.dst = r2.src WHERE r.title LIKE '%developer'"
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = e.Explain(q, explain.FormatText)
		if err != nil {
			b.Fatal(err)
		}
	}
	printHeader(b, "Figure 1 — Neo4j plan (relationship operations are Join category)", out)
}

// BenchmarkFigure2_Architecture regenerates Figure 2: one query, three
// engines, three native plans, one unified shape.
func BenchmarkFigure2_Architecture(b *testing.B) {
	engines := []string{"mysql", "postgresql", "tidb"}
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		for _, name := range engines {
			e := dbms.MustNew(name)
			if _, err := e.Execute("CREATE TABLE t0 (c0 INT)"); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Execute("INSERT INTO t0 VALUES (1), (2), (7)"); err != nil {
				b.Fatal(err)
			}
			format := explain.FormatText
			if name == "tidb" {
				format = explain.FormatTable
			}
			raw, err := e.Explain("SELECT * FROM t0 WHERE c0 < 5", format)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := convert.Convert(name, raw)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("--- %s raw ---\n%s--- %s unified ---\n%s\n",
				name, raw, name, plan.MarshalIndentedText())
		}
	}
	printHeader(b, "Figure 2 — raw plans vs unified plans", out)
}

// BenchmarkFigure3_Visualization regenerates Figure 3: TPC-H q1 plans of
// PostgreSQL, MongoDB, and MySQL rendered by the single unified renderer.
func BenchmarkFigure3_Visualization(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		q1 := bench.TPCHQueries()[0]
		var plans []*core.Plan
		var ascii string
		for _, name := range []string{"postgresql", "mongodb", "mysql"} {
			e := dbms.MustNew(name)
			if err := bench.LoadTPCH(e, 42, bench.DefaultSizes()); err != nil {
				b.Fatal(err)
			}
			raw, err := e.Explain(q1, e.DefaultFormat())
			if err != nil {
				b.Fatal(err)
			}
			plan, err := convert.Convert(name, raw)
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, plan)
			ascii += viz.ASCII(plan) + "\n"
		}
		htmlOut := viz.HTML("TPC-H q1 unified plans", plans...)
		out = ascii + fmt.Sprintf("(HTML rendering: %d bytes; DOT available via viz.DOT)\n", len(htmlOut))
	}
	printHeader(b, "Figure 3 — visualized unified plans of TPC-H q1", out)
}

// BenchmarkFigure4_ProducerVariance regenerates Figure 4: the variance of
// Producer-operation counts per TPC-H query across five DBMSs.
func BenchmarkFigure4_ProducerVariance(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		reports, err := bench.RunTableVI(42)
		if err != nil {
			b.Fatal(err)
		}
		vs := bench.ProducerVariance(reports)
		out = bench.FormatVarianceSeries(vs)
		out += fmt.Sprintf("high-variance queries (>5): %v (paper: six queries incl. q2,q5,q7,q8,q9,q11)\n",
			bench.HighVarianceQueries(vs, 5))
	}
	printHeader(b, "Figure 4 — Producer-count variance per TPC-H query", out)
}

// BenchmarkListing1_NativePlans regenerates Listing 1: PostgreSQL and
// SQLite native plans for the same compound query.
func BenchmarkListing1_NativePlans(b *testing.B) {
	setup := []string{
		"CREATE TABLE t0 (c0 INT)",
		"CREATE TABLE t1 (c0 INT)",
		"CREATE TABLE t2 (c0 INT PRIMARY KEY)",
		"INSERT INTO t0 VALUES (1), (2), (3), (150)",
		"INSERT INTO t1 VALUES (1), (3)",
		"INSERT INTO t2 VALUES (1), (5), (9)",
	}
	q := `SELECT t1.c0 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c0 < 100
	 GROUP BY t1.c0 UNION SELECT c0 FROM t2 WHERE c0 < 10`
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		for _, name := range []string{"postgresql", "sqlite"} {
			e := dbms.MustNew(name)
			for _, s := range setup {
				if _, err := e.Execute(s); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Analyze(); err != nil {
				b.Fatal(err)
			}
			raw, err := e.Explain(q, explain.FormatText)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("--- %s ---\n%s\n", name, raw)
		}
	}
	printHeader(b, "Listing 1 — native PostgreSQL and SQLite plans", out)
}

// BenchmarkListing4_Q11 regenerates Listing 4 and the Section V-A.3
// analysis: unified q11 plans of PostgreSQL vs TiDB and the runtime share
// of the redundant table scans.
func BenchmarkListing4_Q11(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		a, err := bench.RunQ11(42)
		if err != nil {
			b.Fatal(err)
		}
		out = "--- PostgreSQL (unified) ---\n" + a.PostgresPlan.MarshalIndentedText()
		out += "--- TiDB (unified) ---\n" + a.TiDBPlan.MarshalIndentedText()
		out += fmt.Sprintf(
			"\nfull table scans: postgresql=%d tidb=%d (paper: 6 vs 3)\n"+
				"redundant-scan time: %.3f ms of %.3f ms total = %.0f%% (paper: 27%% at 10 GB)\n",
			a.PGScans, a.TiDBScans, a.RedundantMS, a.TotalMS, a.SavingsFraction()*100)
	}
	printHeader(b, "Listing 4 — q11 cross-DBMS comparison", out)
}

// BenchmarkConvertPostgresText measures raw converter throughput (the
// library's hot path when integrated into a tester like SQLancer).
func BenchmarkConvertPostgresText(b *testing.B) {
	e := dbms.MustNew("postgresql")
	if err := bench.LoadTPCH(e, 42, bench.DefaultSizes()); err != nil {
		b.Fatal(err)
	}
	raw, err := e.Explain(bench.TPCHQueries()[4], explain.FormatText)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := convert.Convert("postgresql", raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvertText measures every dialect's text/table converter — the
// formats the arena + zero-copy line-slicing rewrite targets — through the
// cached one-shot path (pooled arena + detach, what uplan.Convert does)
// and through a reused arena (ConvertInto + Reset, plans not retained, as
// a batch worker does before its Clone). Inputs come from
// bench.TextSamples.
func BenchmarkConvertText(b *testing.B) {
	samples, err := bench.TextSamples(42)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range samples {
		c, err := convert.Cached(s.Dialect)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Convert(s.Raw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.Name+"/reuse", func(b *testing.B) {
			ar := core.NewPlanArena()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := convert.ConvertInto(s.Dialect, s.Raw, ar); err != nil {
					b.Fatal(err)
				}
				ar.Reset()
			}
		})
	}
}

// BenchmarkBatchConvert compares sequential conversion of the mixed
// nine-dialect corpus (TPC-H plus the bug-campaign stream) against the
// concurrent batch pipeline at increasing worker counts.
//
// "sequential" is the seed's one-at-a-time path: convert.Convert builds
// the registry-backed converter anew for every record, which is what
// callers did before ConvertBatch existed. "sequential-cached" converts
// one record at a time through the cached converters the facade now uses.
// The parallel cases run the pipeline, which additionally builds in one
// pooled arena per worker and overlaps parsing across workers.
// Every strategy retains the converted plans of the whole corpus — the
// pipeline returns all results by contract, so the sequential paths
// keep theirs too, and the strategies do the same job.
func BenchmarkBatchConvert(b *testing.B) {
	corpus, err := bench.Corpus(42)
	if err != nil {
		b.Fatal(err)
	}
	reportRate := func(b *testing.B, n int, elapsed time.Duration) {
		b.ReportMetric(float64(n*b.N)/elapsed.Seconds(), "plans/s")
	}
	plans := make([]*core.Plan, len(corpus))

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for j, r := range corpus {
				p, err := convert.Convert(r.Dialect, r.Serialized)
				if err != nil {
					b.Fatal(err)
				}
				plans[j] = p
			}
		}
		reportRate(b, len(corpus), time.Since(start))
	})
	b.Run("sequential-cached", func(b *testing.B) {
		b.ReportAllocs()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for j, r := range corpus {
				c, err := convert.Cached(r.Dialect)
				if err != nil {
					b.Fatal(err)
				}
				p, err := c.Convert(r.Serialized)
				if err != nil {
					b.Fatal(err)
				}
				plans[j] = p
			}
		}
		reportRate(b, len(corpus), time.Since(start))
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				results, stats := ConvertBatch(corpus, PipelineOptions{Workers: workers})
				if stats.Errors != 0 {
					for _, r := range results {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			}
			reportRate(b, len(corpus), time.Since(start))
		})
	}
}

// BenchmarkFingerprint measures plan fingerprinting (QPG's inner loop)
// on a cached plan: the hex formatting helper, the binary SHA-256 digest,
// the allocation-free 64-bit fast path, and the FingerprintSet hit path.
func BenchmarkFingerprint(b *testing.B) {
	e := dbms.MustNew("tidb")
	if err := bench.LoadTPCH(e, 42, bench.DefaultSizes()); err != nil {
		b.Fatal(err)
	}
	raw, err := e.Explain(bench.TPCHQueries()[10], explain.FormatTable)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := convert.Convert("tidb", raw)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.FingerprintOptions{IncludeConfiguration: true}
	b.Run("hex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.Fingerprint(opts)
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.FingerprintBytes(opts)
		}
	})
	b.Run("fast64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.Fingerprint64(opts)
		}
	})
	b.Run("observe-hit", func(b *testing.B) {
		set := core.NewFingerprintSet(opts)
		set.Observe(plan)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set.Observe(plan)
		}
	})
}
