package dbms_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
)

// rootActualsExcluded names the EXPLAIN ANALYZE paths whose converted root
// need not carry actual rows, each with the reason.
var rootActualsExcluded = map[string]string{
	"influxdb/TEXT":  "the real output carries no per-operator actuals",
	"sparksql/TEXT":  "the real output carries no per-operator actuals",
	"sqlite/TEXT":    "the real output carries no per-operator actuals",
	"sqlserver/TEXT": "the real output carries no per-operator actuals",
	"mongodb/JSON":   "the plan describes only the $cursor stage, not the query's result",
	"tidb/TABLE":     "TiDB reports actRows, but the table serializer does not emit the column yet",
	"sqlserver/XML":  "SQL Server reports RunTimeInformation, but the showplan serializer does not emit it yet",
}

// TestRootActualsMatchExecution checks, for every executed generated
// query, that the converted EXPLAIN ANALYZE root carries "actual rows"
// equal to the number of rows the query returns, on every engine and
// non-graph format not in rootActualsExcluded.
func TestRootActualsMatchExecution(t *testing.T) {
	for _, name := range dbms.Names() {
		var formats []explain.Format
		for _, f := range dbms.MustNew(name).SupportedFormats() {
			if f != explain.FormatGraph && rootActualsExcluded[name+"/"+string(f)] == "" {
				formats = append(formats, f)
			}
		}
		if len(formats) == 0 {
			continue
		}
		matched := make([]int, len(formats))
		executed := 0
		forGenerated(t, name, func(e *dbms.Engine, seed int64, i int, q string) {
			res, err := e.Execute(q)
			if err != nil {
				return
			}
			executed++
			for j, f := range formats {
				out, err := e.ExplainAnalyze(q, f)
				if err != nil {
					t.Fatalf("%s/%s seed %d q%d: %v", name, f, seed, i, err)
				}
				p, err := convert.Convert(name, out)
				if err != nil {
					t.Fatalf("%s/%s seed %d q%d: convert: %v", name, f, seed, i, err)
				}
				if got, ok := p.Root.Property("actual rows"); ok && got.Value.Equal(core.Num(float64(len(res.Rows)))) {
					matched[j]++
				} else if executed-matched[j] <= 3 {
					t.Errorf("%s/%s seed %d q%d: root actual rows %v (present %v), executed %d rows: %s",
						name, f, seed, i, got.Value, ok, len(res.Rows), q)
				}
			}
		})
		for j, f := range formats {
			if matched[j] != executed {
				t.Errorf("%s/%s: root actual rows match execution in %d of %d plans", name, f, matched[j], executed)
			}
		}
	}
}

// TestPostgresFormatsAgree converts every analyzed generated query's
// PostgreSQL TEXT, JSON, XML and YAML plans and requires them to agree:
// the same operations with the same Cost and Cardinality properties, node
// by node, and the same plan-level property names.
func TestPostgresFormatsAgree(t *testing.T) {
	formats := []explain.Format{explain.FormatText, explain.FormatJSON, explain.FormatXML, explain.FormatYAML}
	agree := make([]int, len(formats))
	plans := 0
	forGenerated(t, "postgresql", func(e *dbms.Engine, seed int64, i int, q string) {
		var want string
		for j, f := range formats {
			out, err := dbms.ExplainTimeless(e, q, f, true)
			if err != nil {
				return // the query does not execute
			}
			p, err := convert.Convert("postgresql", out)
			if err != nil {
				t.Fatalf("%s seed %d q%d: convert: %v", f, seed, i, err)
			}
			got := estimatesAndActuals(p)
			if j == 0 {
				plans++
				want = got
			}
			if got == want {
				agree[j]++
			} else if plans-agree[j] <= 3 {
				t.Errorf("seed %d q%d: %s disagrees with %s:\n%s\nwant:\n%s", seed, i, f, formats[0], got, want)
			}
		}
	})
	for j, f := range formats {
		if agree[j] != plans {
			t.Errorf("%s agrees with %s on %d of %d plans", f, formats[0], agree[j], plans)
		}
	}
}

// estimatesAndActuals renders a plan's operations with their Cost and
// Cardinality properties, one node per line in pre-order, followed by the
// sorted plan-level property names.
func estimatesAndActuals(p *core.Plan) string {
	var b strings.Builder
	var walk func(n *core.Node, depth int)
	walk = func(n *core.Node, depth int) {
		var props []string
		for _, pr := range n.Properties {
			if pr.Category == core.Cost || pr.Category == core.Cardinality {
				props = append(props, pr.String())
			}
		}
		slices.Sort(props)
		fmt.Fprintf(&b, "%s%s %s\n", strings.Repeat("  ", depth), n.Op, strings.Join(props, ", "))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	var names []string
	for _, pr := range p.Properties {
		names = append(names, pr.Name)
	}
	slices.Sort(names)
	b.WriteString("plan: " + strings.Join(names, ", "))
	return b.String()
}
