package convert

import (
	"strings"
	"testing"

	"uplan/internal/core"
)

// jsonFuzzDialects are the converters with a JSON format, all read
// through core.JSONReader.
var jsonFuzzDialects = []string{"postgresql", "mysql", "tidb", "mongodb", "neo4j"}

// FuzzJSONScan drives the JSON reader and every JSON converter with
// arbitrary input. The invariant is robustness, not equivalence: no
// panic, no hang, and either an error or a plan that passes Validate.
// (The seed corpus below runs as part of every regular `go test`, so CI
// exercises it on each push; `go test -fuzz=FuzzJSONScan ./internal/convert`
// explores further.) Semantic equivalence with the legacy decoders is
// asserted separately, over the full benchmark corpus, by
// TestStreamingDecoderMatchesLegacyPath in legacydiff_test.go.
func FuzzJSONScan(f *testing.F) {
	seeds := []string{
		// Well-formed documents in each dialect's shape.
		`[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "t0", "Startup Cost": 0.0, "Total Cost": 11.5, "Plan Rows": 50, "Plans": [{"Node Type": "Sort"}]}, "Planning Time": 0.2}]`,
		`{"query_block": {"cost_info": {"query_cost": "83"}, "plan": {"operation": "Filter: (t1.c2 = 18.5)", "cost_info": {"query_cost": "30.30"}, "inputs": [{"operation": "Table scan on t1", "rows_examined_per_scan": 1.5}]}}}`,
		`[{"id": "HashAgg_1", "estRows": "3.60", "taskType": "root", "operatorInfo": "group by:all columns", "subOperators": [{"id": "TableFullScan_5", "estRows": "10000.00", "accessObject": "table:t0"}]}]`,
		`{"ok": 1, "queryPlanner": {"namespace": "test.usertable", "winningPlan": {"stage": "FETCH", "inputStage": {"stage": "IXSCAN", "indexName": "usertable_pkey"}}}, "executionStats": {"nReturned": 7}}`,
		`{"database accesses": 204, "plan": {"operatorType": "ProduceResults", "arguments": {"EstimatedRows": 180, "Details": "(n.id)-[r]->(e.src)"}, "children": [{"operatorType": "Filter", "arguments": {"Rows": 24}}]}}`,
		// Edge shapes and hostile inputs.
		`{}`, `[]`, `[[]]`, `{"Plan": 5}`, `{"Plan": {"Plans": [3, {"Node Type": 9}]}}`,
		`{"query_block": []}`, `{"queryPlanner": {"winningPlan": {"inputStages": [{}, {"stage": "OR"}]}}}`,
		`[{"id": 17}]`, `[{"subOperators": null}]`,
		// A node without its operator name, one per dialect.
		`[{"Plan": {"Total Cost": 1}}]`, `{"query_block": {"plan": {"cost_info": {"read_cost": "1"}}}}`,
		`[{"id": "", "estRows": "1"}]`, `{"queryPlanner": {"winningPlan": {"stage": 7}}}`,
		`{"plan": {"operatorType": null, "children": []}}`,
		`{"a": "😀 < pair"}`, `{"a": 1e308, "b": -1e-308, "c": 123456789012345678901234567890}`,
		`{"a`, `{"a": tru}`, `[1, 2,`, `"lone string"`, `  `, "\x00", `{"a": "b` + "\x7f" + `"}`,
		strings.Repeat(`[`, 64) + strings.Repeat(`]`, 64),
		strings.Repeat(`{"k":`, 40) + `1` + strings.Repeat(`}`, 40),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	convs := make([]Converter, 0, len(jsonFuzzDialects))
	for _, d := range jsonFuzzDialects {
		c, err := Cached(d)
		if err != nil {
			f.Fatal(err)
		}
		convs = append(convs, c)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// The reader must consume or reject any input.
		r := core.NewJSONReader(s, nil)
		if err := r.Skip(); err == nil {
			// A valid value must also survive scalar materialization.
			r2 := core.NewJSONReader(s, nil)
			if _, err := scanValue(&r2, nil); err != nil {
				t.Fatalf("Skip accepted %q but scanValue rejected it: %v", s, err)
			}
		}
		for _, c := range convs {
			plan, err := c.Convert(s)
			if err != nil {
				continue
			}
			if plan == nil {
				t.Fatalf("%s: nil plan and nil error for %q", c.Dialect(), s)
			}
			if err := plan.Validate(); err != nil {
				t.Fatalf("%s: accepted %q into an invalid plan: %v", c.Dialect(), s, err)
			}
		}
	})
}
