package convert

import (
	"strings"
	"testing"

	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
)

// engine creates a seeded engine for converter round-trip tests.
func engine(t testing.TB, name string) *dbms.Engine {
	t.Helper()
	e := dbms.MustNew(name)
	for _, s := range []string{
		"CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 INT, c2 TEXT)",
		"CREATE TABLE t1 (c0 INT, v TEXT)",
		"INSERT INTO t0 VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')",
		"INSERT INTO t1 VALUES (1, 'x'), (3, 'y')",
	} {
		if _, err := e.Execute(s); err != nil {
			t.Fatalf("%s: seed: %v", name, err)
		}
	}
	if err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	return e
}

const testQuery = "SELECT t0.c2, COUNT(*) FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c1 > 5 GROUP BY t0.c2 ORDER BY t0.c2 LIMIT 10"

// TestEndToEndAllEnginesAllFormats is the central integration test: every
// engine's every supported native format must convert into a valid unified
// plan.
func TestEndToEndAllEnginesAllFormats(t *testing.T) {
	for _, name := range dbms.Names() {
		e := engine(t, name)
		for _, f := range e.SupportedFormats() {
			if f == explain.FormatGraph {
				continue // DOT stands in for IDE graphs; not a converter input
			}
			serialized, err := e.Explain(testQuery, f)
			if err != nil {
				t.Fatalf("%s/%s: explain: %v", name, f, err)
			}
			plan, err := Convert(name, serialized)
			if err != nil {
				t.Fatalf("%s/%s: convert: %v\ninput:\n%s", name, f, err, serialized)
			}
			if err := plan.Validate(); err != nil {
				t.Errorf("%s/%s: invalid unified plan: %v", name, f, err)
			}
			if plan.Source != name {
				t.Errorf("%s/%s: source = %q", name, f, plan.Source)
			}
			if name != "influxdb" && plan.Root == nil {
				t.Errorf("%s/%s: no operations parsed\ninput:\n%s", name, f, serialized)
			}
			if name == "influxdb" && plan.Root != nil {
				t.Errorf("influxdb must be property-only")
			}
		}
	}
}

func TestPostgresTextConversion(t *testing.T) {
	e := engine(t, "postgresql")
	out, err := e.Explain(testQuery, explain.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Convert("postgresql", out)
	if err != nil {
		t.Fatalf("convert: %v\n%s", err, out)
	}
	h := plan.Histogram()
	if h[core.Producer] < 2 {
		t.Errorf("expected ≥2 producers, histogram %v\n%s", h, out)
	}
	if h[core.Folder] < 1 {
		t.Errorf("expected an aggregation, histogram %v", h)
	}
	if h[core.Projector] != 0 {
		t.Errorf("PostgreSQL has no projector operations, got %v", h[core.Projector])
	}
	if _, ok := plan.Property("planning time"); !ok {
		t.Error("planning time plan property missing")
	}
	// Estimated rows must resolve for CERT.
	if _, ok := plan.RootCardinality(); !ok {
		t.Error("no root cardinality")
	}
}

func TestPostgresTextAndJSONAgreeOnStructure(t *testing.T) {
	e := engine(t, "postgresql")
	text, err := e.Explain(testQuery, explain.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	jsonOut, err := e.Explain(testQuery, explain.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	pText, err := Convert("postgresql", text)
	if err != nil {
		t.Fatal(err)
	}
	pJSON, err := Convert("postgresql", jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if pText.Fingerprint(core.FingerprintOptions{}) != pJSON.Fingerprint(core.FingerprintOptions{}) {
		t.Errorf("text and JSON conversions disagree:\ntext:\n%s\njson:\n%s",
			pText.MarshalIndentedText(), pJSON.MarshalIndentedText())
	}
}

func TestTiDBSelectionFolding(t *testing.T) {
	e := engine(t, "tidb")
	out, err := e.Explain("SELECT c1 FROM t0 WHERE c1 > 5", explain.FormatTable)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Convert("tidb", out)
	if err != nil {
		t.Fatalf("convert: %v\n%s", err, out)
	}
	// The paper's Figure 2 special case: Selection becomes a property of
	// the scan, so the plan is Projection → Collect → Full Table Scan with
	// a filter property, not a Filter operation.
	plan.Walk(func(n *core.Node, _ int) {
		if n.Op.Name == "Filter" {
			t.Errorf("TiDB Selection must fold into a property:\n%s",
				plan.MarshalIndentedText())
		}
	})
	foundFilterProp := false
	plan.Walk(func(n *core.Node, _ int) {
		if n.Op.Category == core.Producer {
			if _, ok := n.Property("filter"); ok {
				foundFilterProp = true
			}
		}
	})
	if !foundFilterProp {
		t.Errorf("scan should carry the folded filter property:\n%s",
			plan.MarshalIndentedText())
	}
	// Unstable operator IDs live in Status, invisible to fingerprints.
	fp1 := plan.Fingerprint(core.FingerprintOptions{IncludeConfiguration: true})
	out2, _ := e.Explain("SELECT c1 FROM t0 WHERE c1 > 5", explain.FormatTable)
	plan2, err := Convert("tidb", out2)
	if err != nil {
		t.Fatal(err)
	}
	fp2 := plan2.Fingerprint(core.FingerprintOptions{IncludeConfiguration: true})
	if fp1 != fp2 {
		t.Errorf("fingerprints must ignore unstable TiDB identifiers:\n%s\nvs\n%s",
			plan.MarshalIndentedText(), plan2.MarshalIndentedText())
	}
}

func TestFigure2UnifiedShapes(t *testing.T) {
	// Paper Figure 2: EXPLAIN SELECT * FROM t0 WHERE c0 < 5 converts to
	// Producer->Full Table Scan for PostgreSQL/MySQL, and to
	// Executor->Collect over Producer->Full Table Scan for TiDB.
	q := "SELECT * FROM t0 WHERE c1 < 5"
	pg := engine(t, "postgresql")
	out, err := pg.Explain(q, explain.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Convert("postgresql", out)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Op.Name != "Full Table Scan" || plan.Root.Op.Category != core.Producer {
		t.Errorf("postgres root = %v, want Producer->Full Table Scan\n%s",
			plan.Root.Op, plan.MarshalIndentedText())
	}

	ti := engine(t, "tidb")
	out, err = ti.Explain(q, explain.FormatTable)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = Convert("tidb", out)
	if err != nil {
		t.Fatal(err)
	}
	// TiDB: Projection → Collect → Full Table Scan (Selection folded).
	var ops []string
	plan.Walk(func(n *core.Node, _ int) {
		ops = append(ops, string(n.Op.Category)+"->"+n.Op.Name)
	})
	joined := strings.Join(ops, " | ")
	if !strings.Contains(joined, "Executor->Collect") ||
		!strings.Contains(joined, "Producer->Full Table Scan") {
		t.Errorf("tidb ops = %s", joined)
	}
}

func TestSQLiteListing1Style(t *testing.T) {
	in := "`--COMPOUND QUERY\n" +
		"   |--LEFT-MOST SUBQUERY\n" +
		"   |  |--SCAN t0\n" +
		"   |  |--SEARCH t1 USING AUTOMATIC COVERING INDEX (c0=?)\n" +
		"   |  `--USE TEMP B-TREE FOR GROUP BY\n" +
		"   `--UNION USING TEMP B-TREE\n" +
		"      `--SEARCH t2 USING COVERING INDEX sqlite_autoindex_t2_1 (c0<?)\n"
	plan, err := Convert("sqlite", in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Op.Name != "Append" { // COMPOUND QUERY → Append
		t.Errorf("root = %v", plan.Root.Op)
	}
	h := plan.Histogram()
	if h[core.Producer] != 3 {
		t.Errorf("producers = %v, want 3 (SCAN + 2 SEARCH)\n%s",
			h[core.Producer], plan.MarshalIndentedText())
	}
	if h[core.Combinator] < 2 {
		t.Errorf("combinators = %v, want ≥2 (COMPOUND + UNION)", h[core.Combinator])
	}
}

func TestMongoConversion(t *testing.T) {
	e := engine(t, "mongodb")
	out, err := e.Explain("SELECT c1, c2 FROM t0 WHERE c1 > 5", explain.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Convert("mongodb", out)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Op.Name != "Project" || plan.Root.Op.Category != core.Projector {
		t.Errorf("mongo root = %v", plan.Root.Op)
	}
	scan := plan.Root.Children[0]
	if scan.Op.Name != "Collection Scan" || scan.Op.Category != core.Producer {
		t.Errorf("mongo scan = %v", scan.Op)
	}
	if plan.NodeCount() != 2 {
		t.Errorf("mongo plan size = %d, want 2 (paper Table VI)", plan.NodeCount())
	}
}

func TestNeo4jConversion(t *testing.T) {
	e := engine(t, "neo4j")
	out, err := e.Explain(testQuery, explain.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Convert("neo4j", out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if plan.Root.Op.Name != "Produce Results" || plan.Root.Op.Category != core.Projector {
		t.Errorf("neo4j root = %v", plan.Root.Op)
	}
	h := plan.Histogram()
	if h[core.Join] == 0 {
		t.Errorf("joined query should traverse relationships (Join ops): %v\n%s",
			h, plan.MarshalIndentedText())
	}
	if _, ok := plan.Property("database accesses"); !ok {
		t.Error("database accesses plan property missing")
	}
}

func TestSparkConversion(t *testing.T) {
	e := engine(t, "sparksql")
	out, err := e.Explain("SELECT c2, SUM(c1) FROM t0 GROUP BY c2", explain.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Convert("sparksql", out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	h := plan.Histogram()
	if h[core.Executor] < 3 {
		t.Errorf("spark plans are executor-heavy, got %v\n%s", h, plan.MarshalIndentedText())
	}
	if h[core.Folder] < 2 {
		t.Errorf("partial+final aggregation expected, got %v", h)
	}
}

func TestSQLServerXMLConversion(t *testing.T) {
	e := engine(t, "sqlserver")
	out, err := e.Explain(testQuery, explain.FormatXML)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Convert("sqlserver", out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if plan.NodeCount() < 4 {
		t.Errorf("sqlserver plan too small:\n%s", plan.MarshalIndentedText())
	}
	if _, ok := plan.RootCardinality(); !ok {
		t.Error("EstimateRows should convert into cardinality")
	}
}

func TestInfluxConversion(t *testing.T) {
	e := engine(t, "influxdb")
	out, err := e.Explain("SELECT c1 FROM t0", explain.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Convert("influxdb", out)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root != nil {
		t.Error("influx plans have no operations")
	}
	if len(plan.Properties) < 5 {
		t.Errorf("influx properties = %d", len(plan.Properties))
	}
	if _, ok := plan.RootCardinality(); !ok {
		t.Error("NUMBER OF SERIES should map to a cardinality property")
	}
}

func TestConverterErrors(t *testing.T) {
	if _, err := Convert("oracle", "x"); err == nil {
		t.Error("unknown dialect must fail")
	}
	bad := map[string]string{
		"postgresql": "not a plan at all",
		"tidb":       "no table here",
		"mongodb":    `{"notQueryPlanner": 1}`,
		"sqlserver":  "<xml>wrong</xml>",
		"sqlite":     "",
		"influxdb":   "",
	}
	for dialect, in := range bad {
		if _, err := Convert(dialect, in); err == nil {
			t.Errorf("%s: expected error for %q", dialect, in)
		}
	}
	// A MySQL tabular row with fewer cells than its header is an error,
	// not an index past the end of the row.
	if _, err := Convert("mysql", "+--\n|EXtrA|\n|"); err == nil {
		t.Error("mysql: a short tabular row must fail")
	}
	// A second top-level PostgreSQL YAML node is an error, as in the other
	// strict line formats, not a subtree silently dropped.
	yaml := "- Plan:\n    Node Type: \"Seq Scan\"\n    Total Cost: 1\n    Node Type: \"Index Scan\"\n    Total Cost: 2\n    Plans:\n      - Node Type: \"Sort\"\n"
	if p, err := Convert("postgresql", yaml); err == nil {
		t.Errorf("postgresql yaml: two roots converted to a %d-node plan", p.NodeCount())
	}
}

func TestDialectsComplete(t *testing.T) {
	if len(Dialects()) != 9 {
		t.Errorf("converters = %d, want 9", len(Dialects()))
	}
	for _, d := range dbms.Names() {
		if _, err := For(d, nil); err != nil {
			t.Errorf("missing converter for %s", d)
		}
	}
}

func TestUnknownOperationsSurviveConversion(t *testing.T) {
	// Extensibility: an operator the registry has never seen converts to a
	// generic Executor operation instead of failing.
	in := "Quantum Scan on t0  (cost=0.00..1.00 rows=1 width=4)\n"
	plan, err := Convert("postgresql", in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Op.Category != core.Executor || plan.Root.Op.Name != "Quantum Scan" {
		t.Errorf("unknown op = %v", plan.Root.Op)
	}
}

// TestBlankJSONKeysDropped: a JSON key that is empty or only spaces names
// no property, so the converter drops it, at plan and node level, and
// the plan still passes Validate with every named property kept.
func TestBlankJSONKeysDropped(t *testing.T) {
	cases := []struct {
		dialect, in string
		plan, root  []string // the property names left, in order
	}{
		{"postgresql",
			`[{"Plan": {"Node Type": "Seq Scan", "": 1, "Total Cost": 2, " ": 3}, "": "x", "Planning Time": 0.1}]`,
			[]string{"planning time"}, []string{"total cost"}},
		{"neo4j",
			`{"plan": {"operatorType": "AllNodesScan", "arguments": {"": 1, "EstimatedRows": 3}}, "": 2, "planner": "COST"}`,
			[]string{"planner"}, []string{"estimated rows"}},
		{"mongodb",
			`{"queryPlanner": {"namespace": "db.c", "": 0, "winningPlan": {"stage": "COLLSCAN", "": 1, "direction": "forward"}},` +
				` "executionStats": {"": 1, "nReturned": 2}}`,
			[]string{"name object", "actual rows"}, []string{"direction"}},
		{"mysql",
			`{"query_block": {"": 0, "plan": {"operation": "Table scan on t0", "": 1, "cost_info": {"": 2, "read_cost": "1.0"}}}}`,
			nil, []string{"name object", "read cost"}},
	}
	names := func(props []core.Property) []string {
		var out []string
		for _, pr := range props {
			out = append(out, pr.Name)
		}
		return out
	}
	for _, c := range cases {
		p, err := Convert(c.dialect, c.in)
		if err != nil {
			t.Errorf("%s: %v", c.dialect, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", c.dialect, err)
		}
		if got := names(p.Properties); strings.Join(got, "|") != strings.Join(c.plan, "|") {
			t.Errorf("%s: plan properties %q, want %q", c.dialect, got, c.plan)
		}
		if got := names(p.Root.Properties); strings.Join(got, "|") != strings.Join(c.root, "|") {
			t.Errorf("%s: root properties %q, want %q", c.dialect, got, c.root)
		}
	}
}
