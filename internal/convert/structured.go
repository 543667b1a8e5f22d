package convert

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"uplan/internal/core"
)

// Structured-format parsers: PostgreSQL JSON and XML, MySQL JSON, TiDB
// JSON, MongoDB explain JSON, Neo4j JSON, and SQL Server showplan XML.
//
// The JSON formats decode through core.JSONReader, the XML formats
// through the single-pass xmlScan tokenizer (see xmlscan.go): keys and
// element names drive core.Node construction directly, with no
// intermediate map[string]any or element trees, and every node, property
// list, and child list is allocated from the caller's core.PlanArena (nil
// arena → heap). Every property is named by the registry through addProp
// and addPlanProp, keyed by its native JSON key, XML element or attribute.
//
// One walker, jsonWalk.node, reads the PostgreSQL, MySQL, MongoDB and
// Neo4j JSON trees, each dialect's structure held as data in a jsonShape;
// each keeps its own function for its document's top-level keys. TiDB's
// flat string fields go through nodeFromFields, shared with its TABLE
// format. Like the line converters, every format refuses an operator
// without a name (errBlankOperator).
//
// The retained map-based JSON decoders live in jsonlegacy_test.go, the
// encoding/xml ones in xmllegacy_test.go; both serve as reference
// implementations for the differential tests.

// ------------------------------------------------------ JSON node walker

// jsonShape says where a dialect's JSON explain output keeps the parts of
// an operator node; the registry names what the walker finds there.
type jsonShape struct {
	dialect string
	opKey   string // its string value names the operator
	// title, if set, reads the operator name in place of the registry and
	// may add properties from it.
	title func(reg *core.Registry, node *core.Node, title string, ar *core.PlanArena)
	// children holds the child nodes, an object or an array of objects;
	// laterChildren, if set, holds more, attached after children's
	// whatever the document's key order.
	children, laterChildren string
	flatten                 string // a key whose object's members are node properties
	onlyFlattened           bool   // drop the other keys instead of making them properties
}

// jsonWalk reads one JSON explain document in a dialect's shape, building
// its nodes in ar.
type jsonWalk struct {
	r     core.JSONReader
	ar    *core.PlanArena
	reg   *core.Registry
	shape *jsonShape
}

func newJSONWalk(s string, ar *core.PlanArena, reg *core.Registry, shape *jsonShape) jsonWalk {
	return jsonWalk{r: core.NewJSONReader(s, ar), ar: ar, reg: reg, shape: shape}
}

// node reads the object at the reader into a node and its subtree.
//
//uplan:hotpath
func (w *jsonWalk) node() (*core.Node, error) {
	r, sh, ar := &w.r, w.shape, w.ar
	node := ar.NewNodeIn("", "")
	var later []*core.Node
	err := r.Object(func(key string) error {
		switch key {
		case "": // names nothing, and keeps the shape's unset keys from matching
			return r.Skip()
		case sh.opKey:
			var name string
			if r.Peek() != '"' {
				return r.Skip()
			} else if err := r.String(&name); err != nil {
				return err
			}
			if sh.title != nil {
				sh.title(w.reg, node, name, ar)
			} else {
				node.Op = w.reg.ResolveOperation(sh.dialect, name)
			}
			return nil
		case sh.children:
			return w.kids(&node.Children)
		case sh.laterChildren:
			return w.kids(&later)
		case sh.flatten:
			if r.Peek() != '{' {
				return r.Skip()
			}
			return r.Object(func(k string) error { return w.prop(node, k) })
		}
		if sh.onlyFlattened {
			return r.Skip()
		}
		return w.prop(node, key)
	})
	if err != nil {
		return nil, err
	}
	if node.Op.Name == "" {
		return nil, errBlankOperator
	}
	for _, k := range later {
		ar.AddChildIn(node, k)
	}
	return node, nil
}

// kids appends the nodes under a child key to list: an object is one
// child, an array's objects are children, and anything else is skipped.
func (w *jsonWalk) kids(list *[]*core.Node) error {
	r := &w.r
	add := func(int) error {
		if r.Peek() != '{' {
			return r.Skip()
		}
		child, err := w.node()
		if err == nil {
			*list = w.ar.AppendChildIn(*list, child)
		}
		return err
	}
	if r.Peek() == '[' {
		return r.Array(add)
	}
	return add(0)
}

// root reads the value under a document's root key: an object becomes
// the plan root, anything else is skipped.
func (w *jsonWalk) root(plan *core.Plan) error {
	if w.r.Peek() != '{' {
		return w.r.Skip()
	}
	root, err := w.node()
	if err == nil {
		plan.Root = root
	}
	return err
}

// prop reads the value under key as a node property.
func (w *jsonWalk) prop(node *core.Node, key string) error {
	v, err := scanValue(&w.r, w.ar)
	if err == nil {
		addProp(w.reg, w.shape.dialect, w.ar, node, key, v)
	}
	return err
}

// planProp reads the value under key as a plan property.
func (w *jsonWalk) planProp(plan *core.Plan, key string) error {
	v, err := scanValue(&w.r, w.ar)
	if err == nil {
		addPlanProp(w.reg, w.shape.dialect, w.ar, plan, key, v)
	}
	return err
}

// scanValue reads any JSON value with the converters' scalar semantics:
// null is Null, a boolean a Bool, a number a Num (its literal text kept
// as a string when it overflows float64), a string parseScalar of its
// decoded text, and an object or array a string of its compacted JSON.
func scanValue(r *core.JSONReader, ar *core.PlanArena) (core.Value, error) {
	switch r.Peek() {
	case '"':
		var s string
		err := r.String(&s)
		return parseScalar(s), err
	case '{', '[':
		raw, err := r.Raw()
		return core.Str(compactJSON(raw, ar)), err
	case 't', 'f':
		b, err := r.Bool()
		return core.BoolVal(b), err
	}
	if r.Null() {
		return core.Null(), nil
	}
	lit, err := r.Number()
	if err != nil {
		return core.Null(), err
	}
	if f, err := strconv.ParseFloat(lit, 64); err == nil {
		return core.Num(f), nil
	}
	return core.Str(lit), nil
}

// compactJSON strips the insignificant whitespace from a valid composite
// value, keeping its key order and escaping. Already compact input is
// returned as is, and nothing is copied.
func compactJSON(raw string, ar *core.PlanArena) string {
	if !strings.ContainsAny(raw, " \t\n\r") {
		return raw
	}
	var b strings.Builder
	b.Grow(len(raw))
	inString := false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if inString {
			b.WriteByte(c)
			if c == '\\' {
				// Copy the escaped byte verbatim; the reader validated
				// the escape sequence.
				i++
				b.WriteByte(raw[i])
			} else if c == '"' {
				inString = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			inString = true
		}
		b.WriteByte(c)
	}
	return ar.Intern(b.String())
}

// ------------------------------------------------------- PostgreSQL (JSON)

var (
	errPGArrayElement = errors.New("unexpected array element")
	errJSONShape      = errors.New("unexpected top-level shape")
)

var postgresJSON = jsonShape{dialect: "postgresql", opKey: "Node Type", children: "Plans"}

//uplan:hotpath
func (c *postgresConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	w := newJSONWalk(s, ar, c.reg, &postgresJSON)
	r := &w.r
	plan := &core.Plan{Source: "postgresql"}
	scanTop := func() error {
		return r.Object(func(key string) error {
			if key == "Plan" {
				return w.root(plan)
			}
			return w.planProp(plan, key)
		})
	}
	// Accept both the canonical one-element array and a bare object.
	var err error
	switch r.Peek() {
	case '[':
		seen := false
		err = r.Array(func(i int) error {
			switch {
			case i > 0:
				return r.Skip()
			case r.Peek() != '{':
				return errPGArrayElement
			}
			seen = true
			return scanTop()
		})
		if err == nil && !seen {
			err = errJSONShape
		}
	case '{':
		err = scanTop()
	default:
		err = errJSONShape
	}
	if err != nil {
		return nil, fmt.Errorf("convert: postgres json: %w", err)
	}
	return plan, nil
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

var mysqlJSON = jsonShape{
	dialect: "mysql", opKey: "operation", title: parseTreeLineInto, children: "inputs", flatten: "cost_info",
}

//uplan:hotpath
func (c *mysqlConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	w := newJSONWalk(s, ar, c.reg, &mysqlJSON)
	r := &w.r
	plan := &core.Plan{Source: "mysql"}
	foundQB := false
	err := r.Object(func(key string) error {
		if key != "query_block" || r.Peek() != '{' {
			return r.Skip()
		}
		foundQB = true
		return r.Object(func(qk string) error {
			switch qk {
			case "cost_info":
				if r.Peek() != '{' {
					return r.Skip()
				}
				return r.Object(func(ck string) error {
					if ck != "query_cost" {
						return r.Skip()
					}
					// Keyed by its unified name: an alias for query_cost
					// would also rename each node's cost_info.query_cost.
					return w.planProp(plan, "total cost")
				})
			case "plan":
				return w.root(plan)
			default:
				return r.Skip()
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
	r := core.NewJSONReader(s, ar)
	var root *core.Node
	var err error
	switch r.Peek() {
	case '[':
		err = r.Array(func(i int) error {
			// Only element 0 becomes the plan, but every element must
			// be a valid operator.
			n, err := c.scanJSONNode(&r, ar)
			if i == 0 {
				root = n
			}
			return err
		})
		if err == nil && root == nil {
			err = errors.New("empty plan")
		}
	case '{':
		root, err = c.scanJSONNode(&r, ar)
	default:
		err = errJSONShape
	}
	if err == nil {
		err = r.End() // unlike the other JSON converters
	}
	if err != nil {
		return nil, fmt.Errorf("convert: tidb json: %w", err)
	}
	return &core.Plan{Source: "tidb", Root: foldTiDBSelections(root)}, nil
}

//uplan:hotpath
func (c *tidbConverter) scanJSONNode(r *core.JSONReader, ar *core.PlanArena) (*core.Node, error) {
	var in tidbFields
	var children []*core.Node
	// A null field stays empty.
	err := r.Object(func(key string) error {
		switch key {
		case "id":
			return r.String(&in.ID)
		case "estRows":
			return r.String(&in.EstRows)
		case "actRows":
			return r.String(&in.ActRows)
		case "taskType":
			return r.String(&in.TaskType)
		case "accessObject":
			return r.String(&in.AccessObject)
		case "operatorInfo":
			return r.String(&in.OperatorInfo)
		case "subOperators":
			if r.Null() {
				return nil
			}
			return r.Array(func(int) error {
				child, err := c.scanJSONNode(r, ar)
				if err != nil {
					return err
				}
				children = ar.AppendChildIn(children, child)
				return nil
			})
		default:
			return r.Skip()
		}
	})
	if err != nil {
		return nil, err
	}
	node := c.nodeFromFields(in, ar)
	if node.Op.Name == "" {
		return nil, errBlankOperator
	}
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

// mongoJSON attaches a stage's inputStage before its inputStages, the
// legacy decoder's fixed order.
var mongoJSON = jsonShape{dialect: "mongodb", opKey: "stage", children: "inputStage", laterChildren: "inputStages"}

//uplan:hotpath
func (c *mongoConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	w := newJSONWalk(s, ar, c.reg, &mongoJSON)
	r := &w.r
	plan := &core.Plan{Source: "mongodb"}
	foundQP := false
	err := r.Object(func(key string) error {
		if r.Peek() != '{' {
			return r.Skip()
		}
		switch key {
		case "queryPlanner":
			foundQP = true
			return r.Object(func(qk string) error {
				switch qk {
				case "namespace":
					return w.planProp(plan, qk)
				case "winningPlan":
					return w.root(plan)
				default:
					return r.Skip()
				}
			})
		case "executionStats":
			return r.Object(func(ek string) error { return w.planProp(plan, ek) })
		default:
			return r.Skip()
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

// ------------------------------------------------------------ Neo4j (JSON)

// neo4jJSON keeps a node's properties under "arguments" only; its other
// keys (identifiers, profiler counters) are dropped.
var neo4jJSON = jsonShape{
	dialect: "neo4j", opKey: "operatorType", children: "children", flatten: "arguments", onlyFlattened: true,
}

//uplan:hotpath
func (c *neo4jConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	w := newJSONWalk(s, ar, c.reg, &neo4jJSON)
	plan := &core.Plan{Source: "neo4j"}
	err := w.r.Object(func(key string) error {
		if key == "plan" {
			return w.root(plan)
		}
		return w.planProp(plan, key)
	})
	if err != nil {
		return nil, fmt.Errorf("convert: neo4j json: %w", err)
	}
	if plan.Root == nil && len(plan.Properties) == 0 {
		return nil, fmt.Errorf("convert: neo4j json: empty document")
	}
	return plan, nil
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
