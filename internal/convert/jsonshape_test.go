package convert

import (
	"errors"
	"testing"
)

// TestJSONShapes pins the structural choices of the JSON converters that
// no generated plan shows: the engines always print MongoDB's inputStage
// before inputStages and never put a Neo4j property outside "arguments",
// so the golden digests would not notice a converter that got these wrong.
func TestJSONShapes(t *testing.T) {
	cases := []struct {
		name, dialect, in, want string
	}{
		{"mongodb inputStage attaches before inputStages", "mongodb",
			`{"queryPlanner": {"winningPlan": {"stage": "OR", "inputStages": [{"stage": "IXSCAN", "indexName": "i1"},` +
				` {"stage": "IXSCAN", "indexName": "i2"}], "inputStage": {"stage": "COLLSCAN"}}}}`,
			`Operation: Combinator->Union --children--> {Operation: Producer->Collection_Scan, ` +
				`Operation: Producer->Index_Scan Configuration->access_object: "i1", ` +
				`Operation: Producer->Index_Scan Configuration->access_object: "i2"}`},
		{"mysql cost_info members are node properties", "mysql",
			`{"query_block": {"plan": {"operation": "Table scan on t0", "cost_info": {"read_cost": "1.5", "eval_cost": 2}, "rows_examined_per_scan": 3}}}`,
			`Operation: Producer->Full_Table_Scan Configuration->name_object: "t0", Cost->read_cost: 1.5, ` +
				`Cost->eval_cost: 2, Cardinality->estimated_rows: 3`},
		{"mysql operation title yields its attached condition", "mysql",
			`{"query_block": {"plan": {"operation": "Filter: (t0.c1 > 5)", "inputs": [{"operation": "Table scan on t0"}]}}}`,
			`Operation: Executor->Filter Configuration->filter: "(t0.c1 > 5)" --children--> ` +
				`{Operation: Producer->Full_Table_Scan Configuration->name_object: "t0"}`},
		{"neo4j arguments members are node properties, other keys dropped", "neo4j",
			`{"plan": {"operatorType": "Filter", "identifiers": ["n"], "EstimatedRows": 9,` +
				` "arguments": {"EstimatedRows": 3, "Details": "n.x > 1"}, "children": [{"operatorType": "AllNodesScan", "dbHits": 4}]}}`,
			`Operation: Executor->Filter Cardinality->estimated_rows: 3, Configuration->filter: "n.x > 1" --children--> ` +
				`{Operation: Producer->Full_Table_Scan}`},
	}
	for _, c := range cases {
		p, err := Convert(c.dialect, c.in)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := p.MarshalText(); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestJSONBlankOperatorRefused pins that every JSON converter refuses a
// node without its operator name, as the line and XML converters do,
// rather than build a plan that Validate rejects.
func TestJSONBlankOperatorRefused(t *testing.T) {
	for _, c := range []struct{ dialect, in string }{
		{"postgresql", `{"Plan": {}}`},
		{"postgresql", `[{"Plan": {"Node Type": "Sort", "Plans": [{"Node Type": " "}]}}]`},
		{"mysql", `{"query_block": {"plan": {"operation": "", "cost_info": {"read_cost": "1"}}}}`},
		{"tidb", `{}`},
		{"tidb", `[{"id": "Sort_1", "subOperators": [{"estRows": "1"}]}]`},
		{"mongodb", `{"queryPlanner": {"winningPlan": {"stage": "FETCH", "inputStage": {"stage": 7}}}}`},
		{"neo4j", `{"plan": {"operatorType": null}}`},
	} {
		if _, err := Convert(c.dialect, c.in); !errors.Is(err, errBlankOperator) {
			t.Errorf("%s %s: err = %v, want %v", c.dialect, c.in, err, errBlankOperator)
		}
	}
}
