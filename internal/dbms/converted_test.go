package dbms_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
)

// convertedQueries loads e with the converter golden workload at seed and
// returns its queries: the 22 TPC-H queries over the seeded benchmark
// data, or 22 YCSB (MongoDB) or WDBench (Neo4j) queries for the
// non-relational stores.
func convertedQueries(tb testing.TB, e *dbms.Engine, seed int64) []string {
	tb.Helper()
	var err error
	var queries []string
	switch e.Info.Name {
	case "mongodb":
		err = bench.LoadYCSB(e, seed, 100)
		queries = bench.YCSBQueries(seed, 22)
	case "neo4j":
		err = bench.LoadWDBench(e, seed, 120, 300)
		queries = bench.WDBenchQueries(seed, 22)
	default:
		err = bench.LoadTPCH(e, seed, bench.DefaultSizes())
		queries = bench.TPCHQueries()
	}
	if err != nil {
		tb.Fatalf("%s: load: %v", e.Info.Name, err)
	}
	return queries
}

// forConverted converts every engine's every non-graph format (the 17
// dialect/format paths) over the converter golden workload at seed 42, in
// EXPLAIN and then in EXPLAIN ANALYZE with measured durations zeroed, and
// calls fn with each outcome in a fixed order. It reports a path count
// other than 17.
func forConverted(t *testing.T, fn func(label, dialect string, p *core.Plan, err error)) {
	t.Helper()
	paths := 0
	for _, name := range dbms.Names() {
		e := dbms.MustNew(name)
		queries := convertedQueries(t, e, 42)
		for _, f := range e.SupportedFormats() {
			if f == explain.FormatGraph {
				continue
			}
			paths++
			for _, analyze := range []bool{false, true} {
				mode := map[bool]string{false: "EXPLAIN", true: "ANALYZE"}[analyze]
				for i, q := range queries {
					label := fmt.Sprintf("%s/%s/%s/q%d", name, f, mode, i+1)
					raw, err := dbms.ExplainTimeless(e, q, f, analyze)
					if err != nil {
						t.Fatalf("%s: explain: %v", label, err)
					}
					p, err := convert.Convert(name, raw)
					fn(label, name, p, err)
				}
			}
		}
	}
	if paths != 17 {
		t.Errorf("%d dialect/format paths, want 17", paths)
	}
}

// TestConvertedAnalyzeGoldenDigest pins the converted plans of every
// dialect/format path in EXPLAIN and EXPLAIN ANALYZE: each plan's Source
// and canonical text, or the conversion error, hashed in order. The
// converter digest explains without ANALYZE, so only this one sees the
// keys an engine prints for actuals alone ("Actual Total Time",
// "actual_rows", actRows). A refactor of the converters must never move
// it.
func TestConvertedAnalyzeGoldenDigest(t *testing.T) {
	const want = "80131dcb116fb470c229879f83621f8b561e3e7b01c96ab186d8fc0f1adfcce0"
	h := sha256.New()
	forConverted(t, func(label, _ string, p *core.Plan, err error) {
		if err != nil {
			fmt.Fprintf(h, "%s error %s\n", label, err)
			return
		}
		fmt.Fprintf(h, "%s source %s\n%s\n", label, p.Source, p.MarshalText())
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("converted ANALYZE digest %s, want %s", got, want)
	}
}

// TestConvertedPropertiesResolveToThemselves checks that the registry
// names every converted property: resolving a property's unified name
// under its dialect gives back that name and its category, for every
// plan-level and node property of every plan forConverted yields and of
// the benchmark's text samples. A converter that pins a name or category
// the registry would not give fails here.
func TestConvertedPropertiesResolveToThemselves(t *testing.T) {
	reg := core.DefaultRegistry()
	type mismatch struct {
		dialect, name string
		cat           core.PropertyCategory
	}
	count := map[mismatch]int{}
	checked := 0
	check := func(label, dialect string, p *core.Plan, err error) {
		if err != nil {
			t.Fatalf("%s: convert: %v", label, err)
		}
		visit := func(props []core.Property) {
			for _, pr := range props {
				checked++
				if name, cat := reg.ResolveProperty(dialect, pr.Name); name != pr.Name || cat != pr.Category {
					count[mismatch{dialect, pr.Name, pr.Category}]++
				}
			}
		}
		visit(p.Properties)
		p.Walk(func(n *core.Node, _ int) { visit(n.Properties) })
	}
	forConverted(t, check)
	samples, err := bench.TextSamples(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		p, err := convert.Convert(s.Dialect, s.Raw)
		check("sample/"+s.Name, s.Dialect, p, err)
	}
	for m, n := range count {
		name, cat := reg.ResolveProperty(m.dialect, m.name)
		t.Errorf("%s: %q (%s) emitted %d times, but resolves to %q (%s)", m.dialect, m.name, m.cat, n, name, cat)
	}
	t.Logf("%d properties checked", checked)
}
