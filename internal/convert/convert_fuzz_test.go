package convert_test

import (
	"runtime"
	"strings"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
)

// textDialects are the dialects with a text, table or YAML converter;
// FuzzConvert's first argument picks one of them.
var textDialects = []string{
	"influxdb", "mysql", "neo4j", "postgresql", "sparksql", "sqlite", "sqlserver", "tidb",
}

func dialectPick(tb testing.TB, dialect string) byte {
	for i, d := range textDialects {
		if d == dialect {
			return byte(i)
		}
	}
	tb.Fatalf("no text converter for %s", dialect)
	return 0
}

// routesToScanner reports whether the converter hands s to its JSON or
// XML decoder instead of a line-oriented one. FuzzJSONScan and
// FuzzXMLScan own those decoders, and one line of JSON can hold any
// number of nodes, so the Validate and per-line node invariants do not
// apply to them.
func routesToScanner(s string) bool {
	t := strings.TrimSpace(s)
	return strings.HasPrefix(t, "{") || strings.HasPrefix(t, "[") ||
		strings.HasPrefix(t, "<") || strings.Contains(s, "<ShowPlanXML")
}

// Convert's allocation budget for an input of n bytes: the arena and the
// detached copy of a plan grow with its nodes and properties, and a line
// of two bytes can already open a node, so the per-byte slope is steep;
// the constant covers a fresh pooled arena and the measurement itself.
const (
	convertAllocPerByte = 512
	convertAllocBase    = 256 << 10
)

// allocated returns the bytes the process heap-allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzConvert drives the text, table and YAML converters of the eight
// text-capable dialects with arbitrary input; a fuzzed byte picks the
// dialect. The invariants are robustness and bounded work: no panic;
// either an error or a non-nil plan; allocation at most
// convertAllocPerByte·len(input) + convertAllocBase; and a line-oriented
// input of L lines yields a plan that passes Validate and has at most
// 2·(L+1) nodes (every seed is under one node per line). The seeds are
// the benchmark's text samples, Neo4j text, PostgreSQL YAML and SQL
// Server table explains of TPC-H Q5, EXPLAIN ANALYZE output of TPC-H Q5
// (PostgreSQL text and YAML, MySQL text, SQL Server table) and of WDBench
// Q5 (Neo4j text), a MySQL table row shorter than its
// header that once indexed past the row, three inputs that once converted
// to a blank property or operator name, and a 12 KB table that once
// allocated 250 MB. Explore with
// `go test -run=NONE -fuzz=FuzzConvert ./internal/convert`.
func FuzzConvert(f *testing.F) {
	samples, err := bench.TextSamples(42)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range samples {
		f.Add(dialectPick(f, s.Dialect), s.Raw)
	}
	for _, s := range []struct {
		dialect string
		format  explain.Format
		analyze bool
	}{
		{"neo4j", explain.FormatText, false},
		{"postgresql", explain.FormatYAML, false},
		{"sqlserver", explain.FormatTable, false},
		{"postgresql", explain.FormatText, true},
		{"postgresql", explain.FormatYAML, true},
		{"mysql", explain.FormatText, true},
		{"sqlserver", explain.FormatTable, true},
		{"neo4j", explain.FormatText, true},
	} {
		e, err := dbms.New(s.dialect)
		if err != nil {
			f.Fatal(err)
		}
		q := bench.TPCHQueries()[4]
		explainQuery := e.Explain
		if s.analyze {
			explainQuery = e.ExplainAnalyze
		}
		if s.analyze && s.dialect == "neo4j" {
			err = bench.LoadWDBench(e, 42, 120, 300)
			q = bench.WDBenchQueries(42, 5)[4]
		} else {
			err = bench.LoadTPCH(e, 42, bench.DefaultSizes())
		}
		if err != nil {
			f.Fatal(err)
		}
		raw, err := explainQuery(q, s.format)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(dialectPick(f, s.dialect), raw)
	}
	f.Add(dialectPick(f, "mysql"), "+--\n|EXtrA|\n|")
	f.Add(dialectPick(f, "influxdb"), ":")
	f.Add(dialectPick(f, "sqlite"), "|--")
	f.Add(dialectPick(f, "neo4j"), "+00+0+\n|\n|+000")
	// A border of 4,000 '+' over 4,000 one-character rows.
	f.Add(dialectPick(f, "tidb"), strings.Repeat("+", 4000)+"\n"+strings.Repeat("|\n", 4000))

	convs := make([]convert.Converter, len(textDialects))
	for i, d := range textDialects {
		if convs[i], err = convert.Cached(d); err != nil {
			f.Fatal(err)
		}
		convs[i].Convert(samples[0].Raw) // warm the converter and the arena pool
	}
	f.Fuzz(func(t *testing.T, pick byte, input string) {
		c := convs[int(pick)%len(convs)]
		dialect := c.Dialect()
		var p *core.Plan
		var err error
		alloc := allocated(func() { p, err = c.Convert(input) })
		if limit := convertAllocPerByte*uint64(len(input)) + convertAllocBase; alloc > limit {
			t.Fatalf("%s: converting %d bytes allocated %d bytes, limit %d", dialect, len(input), alloc, limit)
		}
		if err != nil {
			return
		}
		if p == nil {
			t.Fatalf("%s: nil plan without an error", dialect)
		}
		if routesToScanner(input) {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid plan: %v", dialect, err)
		}
		lines := strings.Count(input, "\n") + 1
		if n := p.NodeCount(); n > 2*(lines+1) {
			t.Fatalf("%s: %d nodes from %d lines", dialect, n, lines)
		}
	})
}
