package convert_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/dbms"
	"uplan/internal/explain"
)

// goldenQueries returns the workload an engine explains for the golden
// digest: the 22 TPC-H queries over the seeded benchmark data, or 22
// YCSB (MongoDB) or WDBench (Neo4j) queries for the non-relational stores.
func goldenQueries(tb testing.TB, e *dbms.Engine, seed int64) []string {
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

// hashConversion writes one conversion's outcome to h: the plan's Source
// and canonical text, or the error text.
func hashConversion(h hash.Hash, label, dialect, raw string) {
	p, err := convert.Convert(dialect, raw)
	if err != nil {
		fmt.Fprintf(h, "%s error %s\n", label, err)
		return
	}
	fmt.Fprintf(h, "%s source %s\n%s\n", label, p.Source, p.MarshalText())
}

// TestConverterGoldenDigest pins the output of every converter path:
// every engine's every non-graph native format (the 17 dialect/format
// paths) over its benchmark workload at seed 42, plus the benchmark's
// text samples, hashed in order. A refactor of the converters must never
// move this digest: a new digest means converted plans changed.
func TestConverterGoldenDigest(t *testing.T) {
	const seed = 42
	const want = "3db82587e240e339ddca7b4910d445652181e877e8ce9a806f29bbbc119a9007"
	h := sha256.New()
	paths := 0
	for _, name := range dbms.Names() {
		e, err := dbms.New(name)
		if err != nil {
			t.Fatal(err)
		}
		queries := goldenQueries(t, e, seed)
		for _, f := range e.SupportedFormats() {
			if f == explain.FormatGraph {
				continue
			}
			paths++
			for i, q := range queries {
				raw, err := e.Explain(q, f)
				if err != nil {
					t.Fatalf("%s/%s q%d: explain: %v", name, f, i+1, err)
				}
				hashConversion(h, fmt.Sprintf("%s/%s/q%d", name, f, i+1), name, raw)
			}
		}
	}
	if paths != 17 {
		t.Errorf("%d dialect/format paths, want 17", paths)
	}
	samples, err := bench.TextSamples(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		hashConversion(h, "sample/"+s.Name, s.Dialect, s.Raw)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("converter digest %s, want %s", got, want)
	}
}
