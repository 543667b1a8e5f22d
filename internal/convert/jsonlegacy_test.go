package convert

import (
	"encoding/json"
	"fmt"
	"strings"

	"uplan/internal/core"
)

// This file retains the map[string]any-based JSON decoders the structured
// converters used before the streaming reader port. They serve one
// purpose: LegacyConvert is the reference implementation the
// differential tests (legacydiff_test.go) compare the streaming decoders
// against, plan for plan, across the full benchmark corpus.

// heapArena is the nil arena the reference decoders in this file and
// xmllegacy_test.go build their plans through: every node and property
// goes on the heap. They name their properties with their own literals
// and their own registry lookups, independently of addProp.
var heapArena *core.PlanArena

// decodeJSON decodes one JSON document with number literals preserved.
// It reads the input in place (strings.NewReader) instead of copying it
// into a fresh []byte first.
func decodeJSON(s string, into any) error {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	return dec.Decode(into)
}

// scalarFromJSON converts a decoded JSON value to a core.Value. Composite
// values (objects, arrays) are serialized once, directly into the string
// builder backing the returned value — not Marshal-ed to a []byte that is
// then copied into a string a second time.
func scalarFromJSON(v any) core.Value {
	switch t := v.(type) {
	case nil:
		return core.Null()
	case string:
		return parseScalar(t)
	case bool:
		return core.BoolVal(t)
	case json.Number:
		f, err := t.Float64()
		if err != nil {
			return core.Str(t.String())
		}
		return core.Num(f)
	default:
		var b strings.Builder
		if err := json.NewEncoder(&b).Encode(t); err != nil {
			return core.Null()
		}
		return core.Str(strings.TrimSuffix(b.String(), "\n"))
	}
}

// LegacyConvert converts a serialized plan through the retained map-based
// JSON decoders when the input is one of the five streaming-ported JSON
// formats, and through the regular parsers in plain heap mode (nil arena)
// otherwise. Differential tests assert that its output matches the
// streaming, arena-backed decoders' canonically, so neither the scanner
// port nor the arena memory model can silently change semantics. The heap
// fallback matters: Convert itself now routes through pooled arenas, so
// going through it here would compare the arena path against itself —
// ConvertIn with a nil arena keeps construction (one heap object per
// node/property, plain appends) independent of the slab allocator for the
// text, table, XML, and YAML formats too.
func LegacyConvert(dialect, serialized string) (*core.Plan, error) {
	conv, err := Cached(dialect)
	if err != nil {
		return nil, err
	}
	t := strings.TrimSpace(serialized)
	switch c := conv.(type) {
	case *postgresConverter:
		if strings.HasPrefix(t, "[") || strings.HasPrefix(t, "{") {
			return c.legacyJSON(serialized)
		}
	case *mysqlConverter:
		if strings.HasPrefix(t, "{") {
			return c.legacyJSON(serialized)
		}
	case *tidbConverter:
		if strings.HasPrefix(t, "[") || strings.HasPrefix(t, "{") {
			return c.legacyJSON(serialized)
		}
	case *mongoConverter:
		return c.legacyJSON(serialized)
	case *neo4jConverter:
		if strings.HasPrefix(t, "{") {
			return c.legacyJSON(serialized)
		}
	}
	return conv.ConvertIn(serialized, nil) // heap-built reference plan
}

// ------------------------------------------------------- PostgreSQL (JSON)

func (c *postgresConverter) legacyJSON(s string) (*core.Plan, error) {
	var doc any
	if err := decodeJSON(s, &doc); err != nil {
		return nil, fmt.Errorf("convert: postgres json: %w", err)
	}
	obj, ok := doc.(map[string]any)
	if !ok {
		arr, isArr := doc.([]any)
		if !isArr || len(arr) == 0 {
			return nil, fmt.Errorf("convert: postgres json: unexpected top-level shape")
		}
		obj, ok = arr[0].(map[string]any)
		if !ok {
			return nil, fmt.Errorf("convert: postgres json: unexpected array element")
		}
	}
	plan := &core.Plan{Source: "postgresql"}
	for k, v := range obj {
		if k == "Plan" {
			continue
		}
		name, cat := c.reg.ResolveProperty("postgresql", k)
		plan.Properties = append(plan.Properties, core.Property{
			Category: cat, Name: name, Value: scalarFromJSON(v),
		})
	}
	if rawPlan, ok := obj["Plan"].(map[string]any); ok {
		plan.Root = c.legacyJSONNode(rawPlan)
	}
	return plan, nil
}

func (c *postgresConverter) legacyJSONNode(m map[string]any) *core.Node {
	name, _ := m["Node Type"].(string)
	node := &core.Node{Op: c.reg.ResolveOperation("postgresql", name)}
	for k, v := range m {
		switch k {
		case "Node Type", "Plans", "Parent Relationship":
			if k == "Parent Relationship" {
				heapArena.AddPropertyIn(node, core.Configuration, "parent relationship", scalarFromJSON(v))
			}
			continue
		case "Startup Cost":
			heapArena.AddPropertyIn(node, core.Cost, "startup cost", scalarFromJSON(v))
		case "Total Cost":
			heapArena.AddPropertyIn(node, core.Cost, "total cost", scalarFromJSON(v))
		case "Plan Rows":
			heapArena.AddPropertyIn(node, core.Cardinality, "estimated rows", scalarFromJSON(v))
		case "Plan Width":
			heapArena.AddPropertyIn(node, core.Cardinality, "estimated width", scalarFromJSON(v))
		case "Actual Rows":
			heapArena.AddPropertyIn(node, core.Cardinality, "actual rows", scalarFromJSON(v))
		case "Actual Total Time":
			heapArena.AddPropertyIn(node, core.Status, "actual time", scalarFromJSON(v))
		case "Relation Name":
			heapArena.AddPropertyIn(node, core.Configuration, "name object", scalarFromJSON(v))
		default:
			pname, cat := c.reg.ResolveProperty("postgresql", k)
			heapArena.AddPropertyIn(node, cat, pname, scalarFromJSON(v))
		}
	}
	if kids, ok := m["Plans"].([]any); ok {
		for _, kid := range kids {
			if km, ok := kid.(map[string]any); ok {
				node.Children = append(node.Children, c.legacyJSONNode(km))
			}
		}
	}
	return node
}

// ------------------------------------------------------------ MySQL (JSON)

func (c *mysqlConverter) legacyJSON(s string) (*core.Plan, error) {
	var doc map[string]any
	if err := decodeJSON(s, &doc); err != nil {
		return nil, fmt.Errorf("convert: mysql json: %w", err)
	}
	qb, ok := doc["query_block"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("convert: mysql json: missing query_block")
	}
	plan := &core.Plan{Source: "mysql"}
	if ci, ok := qb["cost_info"].(map[string]any); ok {
		if qc, ok := ci["query_cost"]; ok {
			heapArena.AddPlanPropertyIn(plan, core.Cost, "total cost", scalarFromJSON(qc))
		}
	}
	if p, ok := qb["plan"].(map[string]any); ok {
		plan.Root = c.legacyJSONNode(p)
	}
	if plan.Root == nil && len(plan.Properties) == 0 {
		return nil, fmt.Errorf("convert: mysql json: empty plan")
	}
	return plan, nil
}

func (c *mysqlConverter) legacyJSONNode(m map[string]any) *core.Node {
	opText, _ := m["operation"].(string)
	node := heapArena.NewNodeIn("", "")
	parseTreeLineInto(c.reg, node, opText, nil)
	if ci, ok := m["cost_info"].(map[string]any); ok {
		for k, v := range ci {
			pname, cat := c.reg.ResolveProperty("mysql", k)
			heapArena.AddPropertyIn(node, cat, pname, scalarFromJSON(v))
		}
	}
	for k, v := range m {
		switch k {
		case "operation", "inputs", "cost_info":
			continue
		case "rows_examined_per_scan":
			heapArena.AddPropertyIn(node, core.Cardinality, "estimated rows", scalarFromJSON(v))
		case "actual_rows":
			heapArena.AddPropertyIn(node, core.Cardinality, "actual rows", scalarFromJSON(v))
		default:
			pname, cat := c.reg.ResolveProperty("mysql", k)
			heapArena.AddPropertyIn(node, cat, pname, scalarFromJSON(v))
		}
	}
	if kids, ok := m["inputs"].([]any); ok {
		for _, kid := range kids {
			if km, ok := kid.(map[string]any); ok {
				node.Children = append(node.Children, c.legacyJSONNode(km))
			}
		}
	}
	return node
}

// ------------------------------------------------------------- TiDB (JSON)

type tidbJSONIn struct {
	ID           string       `json:"id"`
	EstRows      string       `json:"estRows"`
	ActRows      string       `json:"actRows"`
	TaskType     string       `json:"taskType"`
	AccessObject string       `json:"accessObject"`
	OperatorInfo string       `json:"operatorInfo"`
	SubOperators []tidbJSONIn `json:"subOperators"`
}

func (c *tidbConverter) legacyJSON(s string) (*core.Plan, error) {
	var arr []tidbJSONIn
	if err := json.Unmarshal([]byte(s), &arr); err != nil {
		// Maybe a single object.
		var one tidbJSONIn
		if err2 := json.Unmarshal([]byte(s), &one); err2 != nil {
			return nil, fmt.Errorf("convert: tidb json: %w", err)
		}
		arr = []tidbJSONIn{one}
	}
	if len(arr) == 0 {
		return nil, fmt.Errorf("convert: tidb json: empty plan")
	}
	plan := &core.Plan{Source: "tidb"}
	plan.Root = foldTiDBSelections(c.legacyJSONNode(arr[0]))
	return plan, nil
}

func (c *tidbConverter) legacyJSONNode(in tidbJSONIn) *core.Node {
	node := c.nodeFromFields(tidbFields{
		ID:           in.ID,
		EstRows:      in.EstRows,
		ActRows:      in.ActRows,
		TaskType:     in.TaskType,
		AccessObject: in.AccessObject,
		OperatorInfo: in.OperatorInfo,
	}, nil)
	for _, sub := range in.SubOperators {
		node.Children = append(node.Children, c.legacyJSONNode(sub))
	}
	return node
}

// ---------------------------------------------------------- MongoDB (JSON)

func (c *mongoConverter) legacyJSON(s string) (*core.Plan, error) {
	var doc map[string]any
	if err := decodeJSON(s, &doc); err != nil {
		return nil, fmt.Errorf("convert: mongodb json: %w", err)
	}
	qp, ok := doc["queryPlanner"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("convert: mongodb json: missing queryPlanner")
	}
	plan := &core.Plan{Source: "mongodb"}
	if ns, ok := qp["namespace"]; ok {
		heapArena.AddPlanPropertyIn(plan, core.Configuration, "name object", scalarFromJSON(ns))
	}
	if wp, ok := qp["winningPlan"].(map[string]any); ok {
		plan.Root = c.legacyStage(wp)
	}
	if es, ok := doc["executionStats"].(map[string]any); ok {
		for k, v := range es {
			name, cat := c.reg.ResolveProperty("mongodb", k)
			heapArena.AddPlanPropertyIn(plan, cat, name, scalarFromJSON(v))
		}
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: mongodb json: no winningPlan")
	}
	return plan, nil
}

func (c *mongoConverter) legacyStage(m map[string]any) *core.Node {
	name, _ := m["stage"].(string)
	node := &core.Node{Op: c.reg.ResolveOperation("mongodb", name)}
	for k, v := range m {
		switch k {
		case "stage", "inputStage", "inputStages":
			continue
		case "namespace":
			heapArena.AddPropertyIn(node, core.Configuration, "name object", scalarFromJSON(v))
		default:
			pname, cat := c.reg.ResolveProperty("mongodb", k)
			heapArena.AddPropertyIn(node, cat, pname, scalarFromJSON(v))
		}
	}
	if in, ok := m["inputStage"].(map[string]any); ok {
		node.Children = append(node.Children, c.legacyStage(in))
	}
	if ins, ok := m["inputStages"].([]any); ok {
		for _, kid := range ins {
			if km, ok := kid.(map[string]any); ok {
				node.Children = append(node.Children, c.legacyStage(km))
			}
		}
	}
	return node
}

// ------------------------------------------------------------ Neo4j (JSON)

func (c *neo4jConverter) legacyJSON(s string) (*core.Plan, error) {
	var doc map[string]any
	if err := decodeJSON(s, &doc); err != nil {
		return nil, fmt.Errorf("convert: neo4j json: %w", err)
	}
	plan := &core.Plan{Source: "neo4j"}
	for k, v := range doc {
		if k == "plan" {
			continue
		}
		name, cat := c.reg.ResolveProperty("neo4j", k)
		heapArena.AddPlanPropertyIn(plan, cat, name, scalarFromJSON(v))
	}
	if p, ok := doc["plan"].(map[string]any); ok {
		plan.Root = c.legacyJSONNode(p)
	}
	if plan.Root == nil && len(plan.Properties) == 0 {
		return nil, fmt.Errorf("convert: neo4j json: empty document")
	}
	return plan, nil
}

func (c *neo4jConverter) legacyJSONNode(m map[string]any) *core.Node {
	name, _ := m["operatorType"].(string)
	node := &core.Node{Op: c.reg.ResolveOperation("neo4j", name)}
	if args, ok := m["arguments"].(map[string]any); ok {
		for k, v := range args {
			switch k {
			case "EstimatedRows":
				heapArena.AddPropertyIn(node, core.Cardinality, "estimated rows", scalarFromJSON(v))
			case "Rows":
				heapArena.AddPropertyIn(node, core.Cardinality, "actual rows", scalarFromJSON(v))
			default:
				pname, cat := c.reg.ResolveProperty("neo4j", k)
				heapArena.AddPropertyIn(node, cat, pname, scalarFromJSON(v))
			}
		}
	}
	if kids, ok := m["children"].([]any); ok {
		for _, kid := range kids {
			if km, ok := kid.(map[string]any); ok {
				node.Children = append(node.Children, c.legacyJSONNode(km))
			}
		}
	}
	return node
}
