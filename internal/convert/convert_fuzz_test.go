package convert_test

import (
	"strings"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
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
// number of nodes, so the per-line node bound does not apply to them.
func routesToScanner(s string) bool {
	t := strings.TrimSpace(s)
	return strings.HasPrefix(t, "{") || strings.HasPrefix(t, "[") ||
		strings.HasPrefix(t, "<") || strings.Contains(s, "<ShowPlanXML")
}

// FuzzConvert drives the text, table and YAML converters of the eight
// text-capable dialects with arbitrary input; a fuzzed byte picks the
// dialect. The invariants are robustness and bounded work: no panic;
// either an error or a non-nil plan; and a line-oriented input of L lines
// yields at most 2·(L+1) nodes (every seed is under one node per line).
// The seeds are the benchmark's text samples, Neo4j text, PostgreSQL YAML
// and SQL Server table explains of TPC-H Q5, and a MySQL table row
// shorter than its header that once indexed past the row. Explore with
// `go test -run=NONE -fuzz=FuzzConvert ./internal/convert`.
func FuzzConvert(f *testing.F) {
	samples, err := bench.TextSamples(42)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range samples {
		f.Add(dialectPick(f, s.Dialect), s.Raw)
	}
	q := bench.TPCHQueries()[4]
	for _, s := range []struct {
		dialect string
		format  explain.Format
	}{
		{"neo4j", explain.FormatText},
		{"postgresql", explain.FormatYAML},
		{"sqlserver", explain.FormatTable},
	} {
		e, err := dbms.New(s.dialect)
		if err != nil {
			f.Fatal(err)
		}
		if err := bench.LoadTPCH(e, 42, bench.DefaultSizes()); err != nil {
			f.Fatal(err)
		}
		raw, err := e.Explain(q, s.format)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(dialectPick(f, s.dialect), raw)
	}
	f.Add(dialectPick(f, "mysql"), "+--\n|EXtrA|\n|")

	f.Fuzz(func(t *testing.T, pick byte, input string) {
		dialect := textDialects[int(pick)%len(textDialects)]
		p, err := convert.Convert(dialect, input)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatalf("%s: nil plan without an error", dialect)
		}
		if routesToScanner(input) {
			return
		}
		lines := strings.Count(input, "\n") + 1
		if n := p.NodeCount(); n > 2*(lines+1) {
			t.Fatalf("%s: %d nodes from %d lines", dialect, n, lines)
		}
	})
}
