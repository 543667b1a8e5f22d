package convert

import (
	"errors"
	"fmt"
	"strings"

	"uplan/internal/core"
)

// Structured-format parsers: PostgreSQL JSON and XML, MySQL JSON, TiDB
// JSON, MongoDB explain JSON, Neo4j JSON, and SQL Server showplan XML.
//
// The JSON formats decode through the streaming jsonScan walker (see
// jsonscan.go), the XML formats through the single-pass xmlScan tokenizer
// (see xmlscan.go): keys and element names drive core.Node construction
// directly, with no intermediate map[string]any or element trees, and
// every node, property list, and child list is allocated from the
// caller's core.PlanArena (nil arena → heap). Nodes start with no
// operation, which the scanners fill when (if) they meet the type key.
// Every property is named by the registry through addProp and
// addPlanProp, keyed by its native JSON key, XML element or attribute.
// The retained map-based JSON decoders live in jsonlegacy_test.go, the
// encoding/xml ones in xmllegacy_test.go; both serve as reference
// implementations for the differential tests.

// ------------------------------------------------------- PostgreSQL (JSON)

// errPGArrayElement is already fully phrased; convertJSON returns it
// as-is instead of wrapping it like scanner errors.
var errPGArrayElement = errors.New("convert: postgres json: unexpected array element")

//uplan:hotpath
func (c *postgresConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s)
	sc.ar = ar
	plan := &core.Plan{Source: "postgresql"}
	scanTop := func() error {
		return sc.scanObject(func(key string) error {
			if key == "Plan" {
				if sc.peek() != '{' {
					return sc.skipValue()
				}
				root, err := c.scanJSONNode(&sc, ar)
				if err != nil {
					return err
				}
				plan.Root = root
				return nil
			}
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			addPlanProp(c.reg, "postgresql", ar, plan, key, v)
			return nil
		})
	}
	// Accept both the canonical one-element array and a bare object.
	switch sc.peek() {
	case '[':
		seen := false
		err := sc.scanArray(func(i int) error {
			if i > 0 {
				return sc.skipValue()
			}
			if sc.peek() != '{' {
				return errPGArrayElement
			}
			seen = true
			return scanTop()
		})
		if err != nil {
			if errors.Is(err, errPGArrayElement) {
				return nil, err
			}
			return nil, fmt.Errorf("convert: postgres json: %w", err)
		}
		if !seen {
			return nil, fmt.Errorf("convert: postgres json: unexpected top-level shape")
		}
	case '{':
		if err := scanTop(); err != nil {
			return nil, fmt.Errorf("convert: postgres json: %w", err)
		}
	default:
		return nil, fmt.Errorf("convert: postgres json: unexpected top-level shape")
	}
	return plan, nil
}

//uplan:hotpath
func (c *postgresConverter) scanJSONNode(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	node := ar.NewNodeIn("", "")
	sawType := false
	err := sc.scanObject(func(key string) error {
		switch key {
		case "Node Type":
			name, ok, err := sc.scanStringValue()
			if err != nil {
				return err
			}
			if ok {
				node.Op = c.reg.ResolveOperation("postgresql", name)
				sawType = true
			}
			return nil
		case "Plans":
			if sc.peek() != '[' {
				return sc.skipValue()
			}
			return sc.scanArray(func(int) error {
				if sc.peek() != '{' {
					return sc.skipValue()
				}
				child, err := c.scanJSONNode(sc, ar)
				if err != nil {
					return err
				}
				ar.AddChildIn(node, child)
				return nil
			})
		default:
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			addProp(c.reg, "postgresql", ar, node, key, v)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	if !sawType {
		node.Op = c.reg.ResolveOperation("postgresql", "")
	}
	return node, nil
}

// -------------------------------------------------------- PostgreSQL (XML)

// convertXML parses the PostgreSQL XML explain format: nested <Plan>
// elements with dash-separated tag names, read by the xmlScan tokenizer
// and built straight into the arena.
//
//uplan:hotpath
func (c *postgresConverter) convertXML(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newXMLScan(s, ar)
	plan := &core.Plan{Source: "postgresql"}
	root, _, err := sc.root()
	if err == nil {
		err = c.xmlQuery(&sc, plan, root)
	}
	if err == nil {
		err = sc.end()
	}
	if err != nil {
		return nil, fmt.Errorf("convert: postgres xml: %w", err)
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: postgres xml: no Plan element")
	}
	return plan, nil
}

// xmlQuery reads the children of the open document or <Query> element
// name: a <Plan> becomes the plan root (the last one wins), a <Query>
// nests, and every other element holding only text becomes a plan
// property ("Planning-Time" → "planning time", a trailing " ms" cut).
//
//uplan:hotpath
func (c *postgresConverter) xmlQuery(sc *xmlScan, plan *core.Plan, name string) error {
	for {
		raw, local, ok, err := sc.child(name)
		if err != nil || !ok {
			return err
		}
		switch local {
		case "Plan":
			root, err := c.xmlNode(sc, raw)
			if err != nil {
				return err
			}
			plan.Root = root
		case "Query":
			if err := c.xmlQuery(sc, plan, raw); err != nil {
				return err
			}
		default:
			val, children, err := sc.text(raw)
			if err != nil {
				return err
			}
			if val == "" || children {
				continue
			}
			if !addPlanProp(c.reg, "postgresql", sc.ar, plan, xmlTag(sc.ar, local), parseScalar(strings.TrimSuffix(val, " ms"))) {
				return sc.errf("unnamed plan property <%s>", raw)
			}
		}
	}
}

// xmlNode builds the open <Plan> element name: its Node-Type, its
// properties in document order, and the <Plan> children of <Plans>.
//
//uplan:hotpath
func (c *postgresConverter) xmlNode(sc *xmlScan, name string) (*core.Node, error) {
	ar := sc.ar
	node := ar.NewNodeIn("", "")
	for {
		raw, local, ok, err := sc.child(name)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if local == "Plans" {
			if err := c.xmlPlans(sc, node, raw); err != nil {
				return nil, err
			}
			continue
		}
		val, _, err := sc.text(raw)
		if err != nil {
			return nil, err
		}
		if local == "Node-Type" {
			node.Op = c.reg.ResolveOperation("postgresql", val)
		} else if !addProp(c.reg, "postgresql", ar, node, xmlTag(ar, local), parseScalar(val)) {
			return nil, sc.errf("unnamed property <%s>", raw)
		}
	}
	if node.Op.Name == "" {
		return nil, sc.errf("<%s> without a Node-Type", name)
	}
	return node, nil
}

// xmlPlans attaches the <Plan> children of the open <Plans> element name
// to node, skipping anything else inside it.
func (c *postgresConverter) xmlPlans(sc *xmlScan, node *core.Node, name string) error {
	for {
		raw, local, ok, err := sc.child(name)
		if err != nil || !ok {
			return err
		}
		if local != "Plan" {
			if err := sc.skip(raw); err != nil {
				return err
			}
			continue
		}
		child, err := c.xmlNode(sc, raw)
		if err != nil {
			return err
		}
		sc.ar.AddChildIn(node, child)
	}
}

// xmlTag maps a dash-separated PostgreSQL XML tag to the spaced key the
// property vocabulary uses ("Sort-Key" → "Sort Key"). The result is
// interned through the arena: tags repeat across every plan, so once the
// arena has seen a tag this costs no allocation.
func xmlTag(ar *core.PlanArena, local string) string {
	if strings.IndexByte(local, '-') < 0 {
		return local
	}
	var buf [64]byte
	if len(local) > len(buf) {
		return strings.ReplaceAll(local, "-", " ")
	}
	b := append(buf[:0], local...)
	for i, c := range b {
		if c == '-' {
			b[i] = ' '
		}
	}
	return ar.InternBytes(b)
}

// ------------------------------------------------------- PostgreSQL (YAML)

// convertYAML parses the PostgreSQL YAML explain format (the subset the
// serializer emits: two-space indentation, "Plans:" lists with "- "
// items). Node keys resolve as in the JSON format; keys at the indentation
// of the "Plan" key are plan properties.
func (c *postgresConverter) convertYAML(s string, ar *core.PlanArena) (*core.Plan, error) {
	plan := &core.Plan{Source: "postgresql"}
	var tree treeBuilder
	planIndent := -1
	for it := newLineIter(s); it.next(); {
		raw := it.line
		indent := indentDepth(raw)
		line := strings.TrimSpace(raw)
		if strings.HasPrefix(line, "- ") {
			line = strings.TrimPrefix(line, "- ")
			indent += 2 // the dash occupies the key's indentation
		}
		key, val, ok := splitKV(line)
		if !ok {
			continue
		}
		val = strings.Trim(val, `"`)
		switch {
		case key == "Plan" && val == "":
			planIndent = indent
		case key == "Plans":
		case key == "Node Type":
			op := c.reg.ResolveOperation("postgresql", val)
			if err := tree.add(ar, ar.NewNodeIn(op.Category, op.Name), indent); err != nil {
				return nil, fmt.Errorf("convert: postgres yaml: line %d: %w", it.n, err)
			}
		case tree.last() == nil || indent <= planIndent:
			addPlanProp(c.reg, "postgresql", ar, plan, key, parseScalar(strings.TrimSuffix(val, " ms")))
		default:
			addProp(c.reg, "postgresql", ar, tree.last(), key, parseScalar(val))
		}
	}
	plan.Root = tree.root
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: postgres yaml: no plan found")
	}
	return plan, nil
}

// ------------------------------------------------------------ MySQL (JSON)

//uplan:hotpath
func (c *mysqlConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s)
	sc.ar = ar
	plan := &core.Plan{Source: "mysql"}
	foundQB := false
	err := sc.scanObject(func(key string) error {
		if key != "query_block" || sc.peek() != '{' {
			return sc.skipValue()
		}
		foundQB = true
		return sc.scanObject(func(qk string) error {
			switch qk {
			case "cost_info":
				if sc.peek() != '{' {
					return sc.skipValue()
				}
				return sc.scanObject(func(ck string) error {
					if ck != "query_cost" {
						return sc.skipValue()
					}
					v, err := sc.scanValue()
					if err != nil {
						return err
					}
					// Keyed by its unified name: an alias for query_cost
					// would also rename each node's cost_info.query_cost.
					addPlanProp(c.reg, "mysql", ar, plan, "total cost", v)
					return nil
				})
			case "plan":
				if sc.peek() != '{' {
					return sc.skipValue()
				}
				root, err := c.scanJSONNode(&sc, ar)
				if err != nil {
					return err
				}
				plan.Root = root
				return nil
			default:
				return sc.skipValue()
			}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("convert: mysql json: %w", err)
	}
	if !foundQB {
		return nil, fmt.Errorf("convert: mysql json: missing query_block")
	}
	if plan.Root == nil && len(plan.Properties) == 0 {
		return nil, fmt.Errorf("convert: mysql json: empty plan")
	}
	return plan, nil
}

//uplan:hotpath
func (c *mysqlConverter) scanJSONNode(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	node := ar.NewNodeIn("", "")
	sawOp := false
	err := sc.scanObject(func(key string) error {
		switch key {
		case "operation":
			title, ok, err := sc.scanStringValue()
			if err != nil || !ok {
				return err
			}
			c.parseTreeLineInto(node, title, ar)
			sawOp = true
			return nil
		case "cost_info":
			if sc.peek() != '{' {
				return sc.skipValue()
			}
			return sc.scanObject(func(ck string) error {
				v, err := sc.scanValue()
				if err != nil {
					return err
				}
				addProp(c.reg, "mysql", ar, node, ck, v)
				return nil
			})
		case "inputs":
			if sc.peek() != '[' {
				return sc.skipValue()
			}
			return sc.scanArray(func(int) error {
				if sc.peek() != '{' {
					return sc.skipValue()
				}
				child, err := c.scanJSONNode(sc, ar)
				if err != nil {
					return err
				}
				ar.AddChildIn(node, child)
				return nil
			})
		default:
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			addProp(c.reg, "mysql", ar, node, key, v)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	if !sawOp {
		node.Op = c.reg.ResolveOperation("mysql", "")
	}
	return node, nil
}

// ------------------------------------------------------------- TiDB (JSON)

// tidbFields are the scalar fields of one TiDB operator: a JSON operator
// object or a row of the table format.
type tidbFields struct {
	ID           string
	EstRows      string
	ActRows      string
	TaskType     string
	AccessObject string
	OperatorInfo string
}

//uplan:hotpath
func (c *tidbConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s)
	sc.ar = ar
	var root *core.Node
	switch sc.peek() {
	case '[':
		seen := false
		err := sc.scanArray(func(i int) error {
			// Only element 0 becomes the plan, but every element is
			// decoded: the legacy json.Unmarshal reference type-checked
			// the whole array, and skipping would accept documents it
			// rejected.
			n, err := c.scanJSONNode(&sc, ar)
			if err != nil {
				return err
			}
			if i == 0 {
				root, seen = n, true
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("convert: tidb json: %w", err)
		}
		if !seen {
			return nil, fmt.Errorf("convert: tidb json: empty plan")
		}
	case '{':
		n, err := c.scanJSONNode(&sc, ar)
		if err != nil {
			return nil, fmt.Errorf("convert: tidb json: %w", err)
		}
		root = n
	default:
		return nil, fmt.Errorf("convert: tidb json: unexpected top-level shape")
	}
	// The legacy decoder was json.Unmarshal, which rejects trailing
	// garbage; keep that strictness.
	if err := sc.requireEOF("plan"); err != nil {
		return nil, fmt.Errorf("convert: tidb json: %w", err)
	}
	plan := &core.Plan{Source: "tidb"}
	plan.Root = foldTiDBSelections(root)
	return plan, nil
}

//uplan:hotpath
func (c *tidbConverter) scanJSONNode(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	var in tidbFields
	var children []*core.Node
	strField := func(dst *string) error {
		if sc.peek() == 'n' { // JSON null leaves the field empty, like Unmarshal
			return sc.scanLiteral("null")
		}
		v, ok, err := sc.scanStringValue()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("non-string operator field")
		}
		*dst = v
		return nil
	}
	err := sc.scanObject(func(key string) error {
		switch key {
		case "id":
			return strField(&in.ID)
		case "estRows":
			return strField(&in.EstRows)
		case "actRows":
			return strField(&in.ActRows)
		case "taskType":
			return strField(&in.TaskType)
		case "accessObject":
			return strField(&in.AccessObject)
		case "operatorInfo":
			return strField(&in.OperatorInfo)
		case "subOperators":
			if sc.peek() == 'n' {
				return sc.scanLiteral("null")
			}
			return sc.scanArray(func(int) error {
				child, err := c.scanJSONNode(sc, ar)
				if err != nil {
					return err
				}
				children = ar.AppendChildIn(children, child)
				return nil
			})
		default:
			return sc.skipValue()
		}
	})
	if err != nil {
		return nil, err
	}
	node := c.nodeFromFields(in, ar)
	node.Children = children
	return node, nil
}

// nodeFromFields maps one operator's scalar fields onto a node, each
// keyed by its table column header; shared by the table parser, the
// streaming JSON decoder above and the legacy reference decoder.
func (c *tidbConverter) nodeFromFields(in tidbFields, ar *core.PlanArena) *core.Node {
	base, suffix := stripOperatorSuffix(in.ID)
	op := c.reg.ResolveOperation("tidb", base)
	node := ar.NewNodeIn(op.Category, op.Name)
	if suffix != "" {
		addProp(c.reg, "tidb", ar, node, "operator id", core.Str(suffix))
	}
	if in.EstRows != "" {
		addProp(c.reg, "tidb", ar, node, "estRows", parseScalar(in.EstRows))
	}
	if in.ActRows != "" {
		addProp(c.reg, "tidb", ar, node, "actRows", parseScalar(in.ActRows))
	}
	if in.TaskType != "" {
		addProp(c.reg, "tidb", ar, node, "task", core.Str(in.TaskType))
	}
	if in.AccessObject != "" {
		addProp(c.reg, "tidb", ar, node, "access object", core.Str(in.AccessObject))
	}
	if in.OperatorInfo != "" {
		addProp(c.reg, "tidb", ar, node, "operator info", core.Str(in.OperatorInfo))
	}
	return node
}

// ---------------------------------------------------------- MongoDB (JSON)

type mongoConverter struct{ reg *core.Registry }

func (c *mongoConverter) Dialect() string { return "mongodb" }

func (c *mongoConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

//uplan:hotpath
func (c *mongoConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s)
	sc.ar = ar
	plan := &core.Plan{Source: "mongodb"}
	foundQP := false
	err := sc.scanObject(func(key string) error {
		switch key {
		case "queryPlanner":
			if sc.peek() != '{' {
				return sc.skipValue()
			}
			foundQP = true
			return sc.scanObject(func(qk string) error {
				switch qk {
				case "namespace":
					v, err := sc.scanValue()
					if err != nil {
						return err
					}
					addPlanProp(c.reg, "mongodb", ar, plan, qk, v)
					return nil
				case "winningPlan":
					if sc.peek() != '{' {
						return sc.skipValue()
					}
					root, err := c.scanStage(&sc, ar)
					if err != nil {
						return err
					}
					plan.Root = root
					return nil
				default:
					return sc.skipValue()
				}
			})
		case "executionStats":
			if sc.peek() != '{' {
				return sc.skipValue()
			}
			return sc.scanObject(func(ek string) error {
				v, err := sc.scanValue()
				if err != nil {
					return err
				}
				addPlanProp(c.reg, "mongodb", ar, plan, ek, v)
				return nil
			})
		default:
			return sc.skipValue()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("convert: mongodb json: %w", err)
	}
	if !foundQP {
		return nil, fmt.Errorf("convert: mongodb json: missing queryPlanner")
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: mongodb json: no winningPlan")
	}
	return plan, nil
}

//uplan:hotpath
func (c *mongoConverter) scanStage(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	node := ar.NewNodeIn("", "")
	sawStage := false
	// inputStage precedes inputStages in the children, whatever the
	// document's key order (the legacy decoder's fixed attachment order).
	var first *core.Node
	var rest []*core.Node
	err := sc.scanObject(func(key string) error {
		switch key {
		case "stage":
			name, ok, err := sc.scanStringValue()
			if err != nil {
				return err
			}
			if ok {
				node.Op = c.reg.ResolveOperation("mongodb", name)
				sawStage = true
			}
			return nil
		case "inputStage":
			if sc.peek() != '{' {
				return sc.skipValue()
			}
			child, err := c.scanStage(sc, ar)
			if err != nil {
				return err
			}
			first = child
			return nil
		case "inputStages":
			if sc.peek() != '[' {
				return sc.skipValue()
			}
			return sc.scanArray(func(int) error {
				if sc.peek() != '{' {
					return sc.skipValue()
				}
				child, err := c.scanStage(sc, ar)
				if err != nil {
					return err
				}
				rest = ar.AppendChildIn(rest, child)
				return nil
			})
		default:
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			addProp(c.reg, "mongodb", ar, node, key, v)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	if !sawStage {
		node.Op = c.reg.ResolveOperation("mongodb", "")
	}
	if first != nil {
		ar.AddChildIn(node, first)
	}
	for _, r := range rest {
		ar.AddChildIn(node, r)
	}
	return node, nil
}

// ------------------------------------------------------------ Neo4j (JSON)

//uplan:hotpath
func (c *neo4jConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s)
	sc.ar = ar
	plan := &core.Plan{Source: "neo4j"}
	err := sc.scanObject(func(key string) error {
		if key == "plan" {
			if sc.peek() != '{' {
				return sc.skipValue()
			}
			root, err := c.scanJSONNode(&sc, ar)
			if err != nil {
				return err
			}
			plan.Root = root
			return nil
		}
		v, err := sc.scanValue()
		if err != nil {
			return err
		}
		addPlanProp(c.reg, "neo4j", ar, plan, key, v)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("convert: neo4j json: %w", err)
	}
	if plan.Root == nil && len(plan.Properties) == 0 {
		return nil, fmt.Errorf("convert: neo4j json: empty document")
	}
	return plan, nil
}

//uplan:hotpath
func (c *neo4jConverter) scanJSONNode(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	node := ar.NewNodeIn("", "")
	sawOp := false
	err := sc.scanObject(func(key string) error {
		switch key {
		case "operatorType":
			name, ok, err := sc.scanStringValue()
			if err != nil {
				return err
			}
			if ok {
				node.Op = c.reg.ResolveOperation("neo4j", name)
				sawOp = true
			}
			return nil
		case "arguments":
			if sc.peek() != '{' {
				return sc.skipValue()
			}
			return sc.scanObject(func(ak string) error {
				v, err := sc.scanValue()
				if err != nil {
					return err
				}
				addProp(c.reg, "neo4j", ar, node, ak, v)
				return nil
			})
		case "children":
			if sc.peek() != '[' {
				return sc.skipValue()
			}
			return sc.scanArray(func(int) error {
				if sc.peek() != '{' {
					return sc.skipValue()
				}
				child, err := c.scanJSONNode(sc, ar)
				if err != nil {
					return err
				}
				ar.AddChildIn(node, child)
				return nil
			})
		default:
			return sc.skipValue()
		}
	})
	if err != nil {
		return nil, err
	}
	if !sawOp {
		node.Op = c.reg.ResolveOperation("neo4j", "")
	}
	return node, nil
}

// -------------------------------------------------------- SQL Server (XML)

type sqlserverConverter struct{ reg *core.Registry }

func (c *sqlserverConverter) Dialect() string { return "sqlserver" }

func (c *sqlserverConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

func (c *sqlserverConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	if !strings.Contains(s, "<ShowPlanXML") {
		// SHOWPLAN_TEXT / STATISTICS PROFILE tabular fallbacks.
		if strings.HasPrefix(strings.TrimSpace(s), "+") {
			return c.convertProfileTable(s, ar)
		}
		if strings.Contains(s, "StmtText") {
			return c.convertText(s, ar)
		}
		return nil, fmt.Errorf("convert: sqlserver: unrecognized input")
	}
	return c.convertXML(s, ar)
}

// convertXML parses showplan XML: the first <RelOp> in document order is
// the plan root, its nested RelOps the tree. The xmlScan tokenizer reads
// the document once and the nodes go straight into the arena.
//
//uplan:hotpath
func (c *sqlserverConverter) convertXML(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newXMLScan(s, ar)
	plan := &core.Plan{Source: "sqlserver"}
	raw, local, err := sc.root()
	if err == nil {
		err = c.xmlFind(&sc, plan, raw, local)
	}
	if err == nil {
		err = sc.end()
	}
	if err != nil {
		return nil, fmt.Errorf("convert: sqlserver xml: %w", err)
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: sqlserver xml: no RelOp element")
	}
	return plan, nil
}

// xmlFind descends through the open element raw until it meets the first
// RelOp, which becomes the plan root; what follows it is only checked.
func (c *sqlserverConverter) xmlFind(sc *xmlScan, plan *core.Plan, raw, local string) error {
	if plan.Root != nil {
		return sc.skip(raw)
	}
	if local == "RelOp" {
		root, err := c.xmlRelOp(sc, raw)
		plan.Root = root
		return err
	}
	for {
		childRaw, childLocal, ok, err := sc.child(raw)
		if err != nil || !ok {
			return err
		}
		if err := c.xmlFind(sc, plan, childRaw, childLocal); err != nil {
			return err
		}
	}
}

// ssElement is one simple child element of a RelOp (<Predicate>,
// <OrderBy>, …): its local name and trimmed text.
type ssElement struct{ key, val string }

// xmlRelOp builds the open <RelOp> element name. Its properties come in
// a fixed order: the EstimateRows, EstimatedTotalSubtreeCost and
// LogicalOp attributes, the Table of its <Object> (the last one wins),
// then its simple child elements in document order, a repeated element
// keeping its first place and its last value. Child RelOps become child
// nodes; RelOps nested deeper, inside other elements, are skipped.
//
//uplan:hotpath
func (c *sqlserverConverter) xmlRelOp(sc *xmlScan, name string) (*core.Node, error) {
	ar := sc.ar
	var phys, logical, rows, cost string
	for {
		local, val, ok, err := sc.attr()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch local {
		case "PhysicalOp":
			phys = val
		case "LogicalOp":
			logical = val
		case "EstimateRows":
			rows = val
		case "EstimatedTotalSubtreeCost":
			cost = val
		}
	}
	op := c.reg.ResolveOperation("sqlserver", phys)
	if op.Name == "" {
		return nil, sc.errf("<%s> without a PhysicalOp", name)
	}
	node := ar.NewNodeIn(op.Category, op.Name)
	var table string
	var elemBuf [8]ssElement
	elems := elemBuf[:0]
	for {
		raw, local, ok, err := sc.child(name)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch local {
		case "RelOp":
			child, err := c.xmlRelOp(sc, raw)
			if err != nil {
				return nil, err
			}
			ar.AddChildIn(node, child)
		case "Object":
			for {
				attr, val, ok, err := sc.attr()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				if attr == "Table" {
					table = val
				}
			}
			if err := sc.skip(raw); err != nil {
				return nil, err
			}
		default:
			val, _, err := sc.text(raw)
			if err != nil {
				return nil, err
			}
			elems = setElement(elems, local, val)
		}
	}
	if rows != "" {
		addProp(c.reg, "sqlserver", ar, node, "EstimateRows", parseScalar(rows))
	}
	if cost != "" {
		addProp(c.reg, "sqlserver", ar, node, "EstimatedTotalSubtreeCost", parseScalar(cost))
	}
	if logical != "" {
		addProp(c.reg, "sqlserver", ar, node, "logical operation", core.Str(logical))
	}
	if table != "" {
		addProp(c.reg, "sqlserver", ar, node, "Object", core.Str(strings.Trim(table, "[]")))
	}
	for _, e := range elems {
		if !addProp(c.reg, "sqlserver", ar, node, e.key, parseScalar(e.val)) {
			return nil, sc.errf("unnamed property <%s>", e.key)
		}
	}
	return node, nil
}

// setElement records a simple element's value: a new key is appended, a
// repeated one keeps its place and takes the new value.
func setElement(elems []ssElement, key, val string) []ssElement {
	for i := range elems {
		if elems[i].key == key {
			elems[i].val = val
			return elems
		}
	}
	return append(elems, ssElement{key, val})
}

// convertProfileTable parses SET STATISTICS PROFILE tabular output: the
// StmtText column carries a "|--" tree indented two spaces per level.
func (c *sqlserverConverter) convertProfileTable(s string, ar *core.PlanArena) (*core.Plan, error) {
	t, err := parseAlignedTable(s)
	if err != nil {
		return nil, err
	}
	stmtIdx, estIdx, costIdx, rowsIdx :=
		t.col("StmtText"), t.col("EstimateRows"), t.col("TotalSubtreeCost"), t.col("Rows")
	if stmtIdx < 0 {
		return nil, fmt.Errorf("convert: sqlserver table lacks StmtText column")
	}
	var tree treeBuilder
	for r := range t.rows {
		cell := t.cell(r, stmtIdx)
		bar := strings.Index(cell, "|--")
		depth := 0
		body := strings.TrimSpace(cell)
		if bar >= 0 {
			depth = bar / 2
			body = strings.TrimSpace(cell[bar+3:])
		}
		name := body
		if i := strings.IndexAny(body, "(["); i > 0 {
			name = strings.TrimSpace(body[:i])
		}
		op := c.reg.ResolveOperation("sqlserver", name)
		node := ar.NewNodeIn(op.Category, op.Name)
		if i := strings.Index(body, "(["); i >= 0 {
			rest := body[i+2:]
			if j := strings.Index(rest, "]"); j >= 0 {
				addProp(c.reg, "sqlserver", ar, node, "Object", core.Str(rest[:j]))
			}
		}
		if v := t.cell(r, estIdx); strings.TrimSpace(v) != "" {
			addProp(c.reg, "sqlserver", ar, node, "EstimateRows", parseScalar(v))
		}
		if v := t.cell(r, costIdx); strings.TrimSpace(v) != "" {
			addProp(c.reg, "sqlserver", ar, node, "total cost", parseScalar(v))
		}
		if v := t.cell(r, rowsIdx); strings.TrimSpace(v) != "" {
			addProp(c.reg, "sqlserver", ar, node, "actual rows", parseScalar(v))
		}
		if err := tree.add(ar, node, depth); err != nil {
			return nil, fmt.Errorf("convert: sqlserver table: row %d: %w", r+1, err)
		}
	}
	if tree.root == nil {
		return nil, fmt.Errorf("convert: sqlserver table: empty plan")
	}
	return &core.Plan{Source: "sqlserver", Root: tree.root}, nil
}

// convertText parses SHOWPLAN_TEXT output: "|--" nesting.
func (c *sqlserverConverter) convertText(s string, ar *core.PlanArena) (*core.Plan, error) {
	var tree treeBuilder
	for it := newLineIter(s); it.next(); {
		line := strings.TrimRight(it.line, " ")
		t := strings.TrimSpace(line)
		if t == "" || t == "StmtText" || strings.HasPrefix(t, "---") {
			continue
		}
		bar := strings.Index(line, "|--")
		depth := 0
		body := t
		if bar >= 0 {
			depth = bar/5 + 1
			body = strings.TrimSpace(line[bar+3:])
		}
		name := body
		if i := strings.IndexAny(body, "("); i > 0 {
			name = strings.TrimSpace(body[:i])
		}
		if i := strings.Index(name, " WHERE:"); i > 0 {
			name = strings.TrimSpace(name[:i])
		}
		op := c.reg.ResolveOperation("sqlserver", name)
		node := ar.NewNodeIn(op.Category, op.Name)
		if i := strings.Index(body, "OBJECT:(["); i >= 0 {
			rest := body[i+9:]
			if j := strings.Index(rest, "]"); j >= 0 {
				addProp(c.reg, "sqlserver", ar, node, "Object", core.Str(rest[:j]))
			}
		}
		if i := strings.Index(body, "WHERE:("); i >= 0 {
			rest := body[i+7:]
			if j := strings.LastIndex(rest, ")"); j >= 0 {
				addProp(c.reg, "sqlserver", ar, node, "Predicate", core.Str(rest[:j]))
			}
		}
		if err := tree.add(ar, node, depth); err != nil {
			return nil, fmt.Errorf("convert: sqlserver text: line %d: %w", it.n, err)
		}
	}
	if tree.root == nil {
		return nil, fmt.Errorf("convert: sqlserver text: no plan found")
	}
	return &core.Plan{Source: "sqlserver", Root: tree.root}, nil
}
