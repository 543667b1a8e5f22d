package explain_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
)

// jsonDialects are the engines with a JSON explain format.
var jsonDialects = []string{"postgresql", "mysql", "mongodb", "neo4j", "tidb"}

// TestJSONEncoderMatchesLegacyPath is the differential guard for the
// hand-written EXPLAIN JSON encoder: 10,000 generated Explain outputs,
// 2,000 per JSON dialect over five schema seeds, must be byte-identical
// to the json.MarshalIndent reference. Each target engine has a twin fed
// the same statements: the twin executes each query, which advances its
// statement counter exactly as the target's Explain does, then shapes
// the native plan that the reference serializes. The counters feed the
// plans' planning times and TiDB's operator IDs, so the twins' plans
// match only while their histories do.
func TestJSONEncoderMatchesLegacyPath(t *testing.T) {
	const perSeed = 400
	total := 0
	for _, name := range jsonDialects {
		for seed := int64(1); seed <= 5; seed++ {
			target, twin := dbms.MustNew(name), dbms.MustNew(name)
			g := sqlancer.New(seed)
			if err := oracle.ApplySchema(target, g, 3, 30); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if err := oracle.ApplySchema(twin, sqlancer.New(seed), 3, 30); err != nil {
				t.Fatalf("%s seed %d twin: %v", name, seed, err)
			}
			for q := 0; q < perSeed; q++ {
				query := g.Query()
				got, err := target.Explain(query, explain.FormatJSON)
				if err != nil {
					t.Fatalf("%s seed %d: explain %q: %v", name, seed, query, err)
				}
				// Only the counter matters here: an execution error is the
				// same on both twins and leaves the plan unchanged.
				_, _ = twin.Execute(query)
				native, err := twin.NativePlan(query)
				if err != nil {
					t.Fatalf("%s seed %d: twin plan %q: %v", name, seed, query, err)
				}
				want, err := explain.LegacyJSON(native)
				if err != nil {
					t.Fatalf("%s seed %d: reference %q: %v", name, seed, query, err)
				}
				if got != want {
					t.Fatalf("%s seed %d query %q: encoder output differs\n--- encoder ---\n%s\n--- reference ---\n%s",
						name, seed, query, got, want)
				}
				total++
			}
		}
	}
	if total < 10000 {
		t.Errorf("only %d outputs compared", total)
	}
}

// handPlan is a plan whose values hit every encoder branch: HTML-escaped
// characters, non-ASCII and invalid UTF-8, control characters, U+2028/9,
// floats at both exponent cutoffs, negative zero, integer extremes, nil,
// a node without properties, and values of types the encoder hands to
// encoding/json.
func handPlan(dialect string) *explain.Plan {
	leaf := explain.NewNode("Seq Scan")
	leaf.Object = "t<0>&"
	leaf.Add("Filter", "(c0 >= 1 AND c2 <> 'a&b')").
		Add("rows", 1e21).Add("width", 1e-7).Add("startup_cost", 1e20).
		Add("total_cost", 123456789.125).Add("actual_rows", math.Copysign(0, -1)).
		Add("tiny", 5e-324).Add("huge", math.MaxFloat64).Add("edge", 1e-6).
		Add("int", math.MinInt).Add("int64", int64(math.MaxInt64)).
		Add("flag", true).Add("none", nil).
		Add("text", "\u00e9 \u6f22\u5b57 \xff\xfe \u2028\u2029 \x00\x01\b\f\n\r\t\x1f\x7f \"q\" \\ /").
		Add("operator info", "a < b & c > d").Add("index", "ix<1>")
	bare := explain.NewNode("Result")
	root := explain.NewNode("Hash Join", leaf, bare)
	root.Add("float32", float32(1.5)).Add("list", []string{"x", "<y>"}).Add("detail", "")
	return &explain.Plan{
		Dialect: dialect,
		Root:    root,
		PlanProps: []explain.Prop{
			{Key: "Planning Time", Val: 0.125},
			{Key: "empty", Val: ""},
			{Key: "\u03ba\u03bb\u03b5\u03b9\u03b4\u03af <&>", Val: int64(-7)},
		},
	}
}

// TestJSONEncoderHandCases compares the encoder with the reference on
// the hand-built plans, an empty plan, a lone node with an empty (not
// nil) child list, and plans holding NaN or an
// infinity, which must fail with the reference's error text (TiDB
// formats every value as a string first, so it never fails).
func TestJSONEncoderHandCases(t *testing.T) {
	for _, name := range jsonDialects {
		plans := map[string]*explain.Plan{
			"hand":  handPlan(name),
			"empty": {Dialect: name},
			"leaf":  {Dialect: name, Root: &explain.Node{Name: "Result", Children: []*explain.Node{}}},
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := handPlan(name)
			p.Root.Children[0].Add("bad", bad)
			p.Root.Children[1].Add("rows", bad) // MySQL passes only a few keys through
			p.PlanProps = append(p.PlanProps, explain.Prop{Key: "bad", Val: bad})
			plans["bad "+explain.FormatVal(bad)] = p
		}
		for label, p := range plans {
			got, gerr := explain.Serialize(p, explain.FormatJSON)
			want, werr := explain.LegacyJSON(p)
			if got != want {
				t.Errorf("%s %s: encoder output differs\n--- encoder ---\n%s\n--- reference ---\n%s", name, label, got, want)
			}
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Errorf("%s %s: encoder error %v, reference error %v", name, label, gerr, werr)
			}
			if strings.HasPrefix(label, "bad") && name != "tidb" && gerr == nil {
				t.Errorf("%s %s: non-finite float encoded without error", name, label)
			}
		}
	}
	out, err := explain.PostgresJSON(handPlan("postgresql"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"Filter": "(c0 \u003e= 1 AND c2 \u003c\u003e 'a\u0026b')"`) {
		t.Errorf("predicate not HTML-escaped as encoding/json does:\n%s", out)
	}
}

// BenchmarkExplainJSON serializes one join-and-aggregate plan per JSON
// dialect, shaped by the engine from a small analyzed schema.
func BenchmarkExplainJSON(b *testing.B) {
	for _, name := range jsonDialects {
		b.Run(name, func(b *testing.B) {
			e := dbms.MustNew(name)
			for _, s := range []string{
				"CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 INT, c2 TEXT)",
				"CREATE TABLE t1 (c0 INT, v TEXT)",
				"INSERT INTO t0 VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')",
				"INSERT INTO t1 VALUES (1, 'x'), (3, 'y')",
			} {
				if _, err := e.Execute(s); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Analyze(); err != nil {
				b.Fatal(err)
			}
			p, err := e.NativePlan("SELECT t0.c2, COUNT(*) FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 " +
				"WHERE t0.c1 >= 5 GROUP BY t0.c2 ORDER BY t0.c2 LIMIT 10")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := explain.Serialize(p, explain.FormatJSON); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestJSONEncoderConcurrent serializes from several goroutines at once:
// the encoders' buffers are pooled, so no document may see another's
// bytes.
func TestJSONEncoderConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := handPlan(jsonDialects[(g+i)%len(jsonDialects)])
				got, gerr := explain.Serialize(p, explain.FormatJSON)
				want, werr := explain.LegacyJSON(p)
				if got != want || gerr != nil || werr != nil {
					t.Errorf("goroutine %d: %s output differs from the reference (errors %v, %v)", g, p.Dialect, gerr, werr)
					return
				}
			}
		}()
	}
	wg.Wait()
}
