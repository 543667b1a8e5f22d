package convert

import (
	"fmt"
	"strings"

	"uplan/internal/core"
)

// Text-format parsers: PostgreSQL EXPLAIN text, MySQL TREE, TiDB table,
// SQLite EXPLAIN QUERY PLAN, SparkSQL physical plan, Neo4j plan table, and
// InfluxDB's property list.
//
// All of them are arena-native: ConvertIn builds nodes, property lists,
// and child lists inside the caller's core.PlanArena (nil falls back to
// the heap), walks the input with the index-based line iterator, and
// slices every field — operator names, object names, property values —
// straight out of the input string without copying. Convert routes
// through a pooled arena plus a compact detach (see convertPooled), so
// even the convenience path batches its allocations.

// -------------------------------------------------------------- PostgreSQL

type postgresConverter struct{ reg *core.Registry }

func (c *postgresConverter) Dialect() string { return "postgresql" }

func (c *postgresConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

func (c *postgresConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	t := strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(t, "[") || strings.HasPrefix(t, "{"):
		return c.convertJSON(s, ar)
	case strings.HasPrefix(t, "<explain"):
		return c.convertXML(s, ar)
	case strings.HasPrefix(t, "- Plan:"):
		return c.convertYAML(s, ar)
	}
	return c.convertText(s, ar)
}

// convertText parses the EXPLAIN text format: node lines carry a
// "(cost=…)" annotation; "->" arrows encode nesting (6 columns per level);
// property lines sit under their node; plan lines trail at column 0.
//
//uplan:hotpath
func (c *postgresConverter) convertText(s string, ar *core.PlanArena) (*core.Plan, error) {
	plan := &core.Plan{Source: "postgresql"}
	var tree treeBuilder // keyed by the column of the operator name
	for it := newLineIter(s); it.next(); {
		raw := it.line
		if strings.TrimSpace(raw) == "" {
			continue
		}
		arrow := strings.Index(raw, "->")
		costIdx := strings.Index(raw, "(cost=")
		isNode := costIdx >= 0 && (arrow >= 0 || indentDepth(raw) == 0)
		switch {
		case isNode:
			nameCol := 0
			text := raw
			if arrow >= 0 {
				nameCol = arrow + 4
				text = raw[arrow+2:]
			}
			node, err := c.parseNodeLine(strings.TrimSpace(text), ar)
			if err == nil {
				err = tree.add(ar, node, nameCol)
			}
			if err != nil {
				return nil, fmt.Errorf("convert: line %d: %w", it.n, err)
			}
		case indentDepth(raw) == 0:
			// Plan-level property ("Planning Time: 0.124 ms").
			key, val, ok := splitKV(raw)
			if !ok {
				return nil, fmt.Errorf("convert: line %d: unparseable plan line %q", it.n, raw)
			}
			addPlanProp(c.reg, "postgresql", ar, plan, key, parseScalar(strings.TrimSuffix(val, " ms")))
		default:
			// Node property line; belongs to the deepest open node.
			node := tree.last()
			if node == nil {
				return nil, fmt.Errorf("convert: line %d: property before any operator", it.n)
			}
			key, val, ok := splitKV(raw)
			if !ok {
				continue // tolerate free-form annotation lines
			}
			addProp(c.reg, "postgresql", ar, node, key, parseScalar(val))
		}
	}
	plan.Root = tree.root
	if plan.Root == nil && len(plan.Properties) == 0 {
		return nil, fmt.Errorf("convert: no PostgreSQL plan found in input")
	}
	return plan, nil
}

// parseNodeLine parses `Name on obj  (cost=a..b rows=N width=W) [actual…]`.
//
//uplan:hotpath
func (c *postgresConverter) parseNodeLine(line string, ar *core.PlanArena) (*core.Node, error) {
	costIdx := strings.Index(line, "(cost=")
	if costIdx < 0 {
		return nil, fmt.Errorf("operator line without cost annotation: %q", line)
	}
	title := strings.TrimSpace(line[:costIdx])
	ann := line[costIdx:]
	name := title
	object := ""
	if i := strings.Index(title, " on "); i >= 0 {
		name = title[:i]
		object = title[i+4:]
	}
	op := c.reg.ResolveOperation("postgresql", name)
	node := ar.NewNodeIn(op.Category, op.Name)
	if object != "" {
		addProp(c.reg, "postgresql", ar, node, "Relation Name", core.Str(object))
	}
	// Parse cost annotation pieces.
	se, te, seOK, teOK := parseCostRange(ann, "cost=")
	if seOK {
		addProp(c.reg, "postgresql", ar, node, "startup cost", core.Num(se))
	}
	if teOK {
		addProp(c.reg, "postgresql", ar, node, "total cost", core.Num(te))
	}
	if v, ok := parseKVNum(ann, "rows=", false); ok {
		addProp(c.reg, "postgresql", ar, node, "rows", core.Num(v))
	}
	if v, ok := parseKVNum(ann, "width=", false); ok {
		addProp(c.reg, "postgresql", ar, node, "width", core.Num(v))
	}
	if _, at, _, ok := parseCostRange(ann, "actual time="); ok {
		addProp(c.reg, "postgresql", ar, node, "actual time", core.Num(at))
		if v, ok := parseKVNum(ann, "rows=", true); ok {
			addProp(c.reg, "postgresql", ar, node, "actual rows", core.Num(v))
		}
	}
	return node, nil
}

func splitKV(raw string) (string, string, bool) {
	t := strings.TrimSpace(raw)
	i := strings.Index(t, ": ")
	if i < 0 {
		if strings.HasSuffix(t, ":") {
			return strings.TrimSuffix(t, ":"), "", true
		}
		return "", "", false
	}
	return t[:i], t[i+2:], true
}

// parseCostRange extracts "key=a..b", returning each end with its own
// validity, so a finite end survives a non-number on the other side; the
// range is split in place (no intermediate slice).
func parseCostRange(s, key string) (a, b float64, aok, bok bool) {
	i := strings.Index(s, key)
	if i < 0 {
		return 0, 0, false, false
	}
	rest := s[i+len(key):]
	end := strings.IndexAny(rest, " )")
	if end < 0 {
		end = len(rest)
	}
	rest = rest[:end]
	dots := strings.Index(rest, "..")
	if dots < 0 {
		return 0, 0, false, false
	}
	av := parseScalar(rest[:dots])
	bv := parseScalar(rest[dots+2:])
	return av.Num, bv.Num, av.Kind == core.KindNumber, bv.Kind == core.KindNumber
}

// parseKVNum extracts "key=N"; when last is true the final occurrence is
// used (the actual-rows in the second annotation group).
func parseKVNum(s, key string, last bool) (float64, bool) {
	i := strings.Index(s, key)
	if last {
		i = strings.LastIndex(s, key)
	}
	if i < 0 {
		return 0, false
	}
	rest := s[i+len(key):]
	end := strings.IndexAny(rest, " )")
	if end < 0 {
		end = len(rest)
	}
	v := parseScalar(rest[:end])
	if v.Kind != core.KindNumber {
		return 0, false
	}
	return v.Num, true
}

// ------------------------------------------------------------------ MySQL

type mysqlConverter struct{ reg *core.Registry }

func (c *mysqlConverter) Dialect() string { return "mysql" }

// mysqlOperators lists MySQL TREE operator prefixes, longest first, so
// titles parse deterministically.
var mysqlOperators = []string{
	"Aggregate using temporary table", "Rows fetched before execution",
	"Nested loop inner join", "Nested loop left join", "Intersect materialize",
	"Except materialize", "Union materialize", "Covering index lookup",
	"Covering index scan", "Single-row index lookup", "Index range scan",
	"Index lookup", "Index scan", "Group aggregate", "Inner hash join",
	"Left hash join", "Table scan", "Union all", "Deduplicate", "Aggregate",
	"Filter", "Sort", "Limit", "Insert", "Update", "Delete", "Materialize",
}

func (c *mysqlConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

func (c *mysqlConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "{") {
		return c.convertJSON(s, ar)
	}
	if strings.HasPrefix(t, "+--") || strings.HasPrefix(t, "| id") {
		return c.convertTable(s, ar)
	}
	return c.convertTree(s, ar)
}

// convertTree parses EXPLAIN FORMAT=TREE: "-> " lines, 4 spaces/level.
//
//uplan:hotpath
func (c *mysqlConverter) convertTree(s string, ar *core.PlanArena) (*core.Plan, error) {
	var tree treeBuilder
	for it := newLineIter(s); it.next(); {
		arrow := strings.Index(it.line, "-> ")
		if arrow < 0 {
			continue
		}
		node := ar.NewNodeIn("", "")
		parseTreeLineInto(c.reg, node, strings.TrimSpace(it.line[arrow+3:]), ar)
		if err := tree.add(ar, node, arrow/4); err != nil {
			return nil, fmt.Errorf("convert: line %d: %w", it.n, err)
		}
	}
	plan := &core.Plan{Source: "mysql", Root: tree.root}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: no MySQL TREE plan found in input")
	}
	return plan, nil
}

// parseTreeLineInto sets a fresh node's operation and properties from a
// TREE operator title. It is also the MySQL JSON shape's title hook: each
// "operation" string reads like a TREE line.
//
//uplan:hotpath
func parseTreeLineInto(reg *core.Registry, node *core.Node, title string, ar *core.PlanArena) {
	// Split off the cost/actual annotations.
	detailEnd := len(title)
	if i := strings.Index(title, "  (cost="); i >= 0 {
		detailEnd = i
	} else if i := strings.Index(title, " (cost="); i >= 0 {
		detailEnd = i
	}
	head := strings.TrimSpace(title[:detailEnd])
	ann := title[detailEnd:]

	name := head
	rest := ""
	for _, opName := range mysqlOperators {
		if strings.HasPrefix(head, opName) {
			name = opName
			rest = strings.TrimSpace(head[len(opName):])
			break
		}
	}
	node.Op = reg.ResolveOperation("mysql", name)
	rest = strings.TrimPrefix(rest, ":")
	rest = strings.TrimSpace(rest)
	if i := strings.Index(rest, " using "); i >= 0 {
		addProp(reg, "mysql", ar, node, "key", core.Str(strings.TrimSpace(rest[i+7:])))
		rest = strings.TrimSpace(rest[:i])
	}
	if strings.HasPrefix(rest, "on ") {
		addProp(reg, "mysql", ar, node, "table_name", core.Str(strings.TrimPrefix(rest, "on ")))
	} else if rest != "" {
		addProp(reg, "mysql", ar, node, "attached_condition", core.Str(rest))
	}
	if v, ok := parseKVNum(ann, "cost=", false); ok {
		addProp(reg, "mysql", ar, node, "cost", core.Num(v))
	}
	if v, ok := parseKVNum(ann, "rows=", false); ok {
		addProp(reg, "mysql", ar, node, "rows", core.Num(v))
	}
	if i := strings.Index(ann, "actual time="); i >= 0 {
		if v, ok := parseKVNum(ann[i:], "rows=", false); ok {
			addProp(reg, "mysql", ar, node, "actual_rows", core.Num(v))
		}
	}
}

// convertTable parses the classic tabular EXPLAIN: each row is one table
// access; the result is a left-deep chain.
//
//uplan:hotpath
func (c *mysqlConverter) convertTable(s string, ar *core.PlanArena) (*core.Plan, error) {
	t, err := parseASCIITable(s)
	if err != nil {
		return nil, err
	}
	tableIdx, typeIdx, keyIdx, rowsIdx, extraIdx :=
		t.col("table"), t.col("type"), t.col("key"), t.col("rows"), t.col("Extra")
	plan := &core.Plan{Source: "mysql"}
	var prev *core.Node
	for i := range t.rows {
		if len(t.rows[i]) < len(t.header) {
			return nil, fmt.Errorf("convert: MySQL tabular row %d has %d cells, header has %d", i+1, len(t.rows[i]), len(t.header))
		}
		opName := "Table scan"
		switch strings.ToLower(t.cell(i, typeIdx)) {
		case "ref", "eq_ref", "const":
			opName = "Index lookup"
		case "range":
			opName = "Index range scan"
		case "index":
			opName = "Covering index scan"
		}
		op := c.reg.ResolveOperation("mysql", opName)
		node := ar.NewNodeIn(op.Category, op.Name)
		if v := t.cell(i, tableIdx); v != "" {
			addProp(c.reg, "mysql", ar, node, "table_name", core.Str(v))
		}
		if v := t.cell(i, keyIdx); v != "" && v != "NULL" {
			addProp(c.reg, "mysql", ar, node, "key", core.Str(v))
		}
		if v := t.cell(i, rowsIdx); v != "" {
			addProp(c.reg, "mysql", ar, node, "rows", parseScalar(v))
		}
		if v := t.cell(i, extraIdx); v != "" && v != "NULL" {
			addProp(c.reg, "mysql", ar, node, "extra", core.Str(v))
		}
		if plan.Root == nil {
			plan.Root = node
		} else {
			ar.AddChildIn(prev, node)
		}
		prev = node
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: empty MySQL tabular plan")
	}
	return plan, nil
}

// ------------------------------------------------------------------- TiDB

type tidbConverter struct{ reg *core.Registry }

func (c *tidbConverter) Dialect() string { return "tidb" }

func (c *tidbConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

func (c *tidbConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "[") || strings.HasPrefix(t, "{") {
		return c.convertJSON(s, ar)
	}
	return c.convertTable(s, ar)
}

//uplan:hotpath
func (c *tidbConverter) convertTable(s string, ar *core.PlanArena) (*core.Plan, error) {
	t, err := parseAlignedTable(s)
	if err != nil {
		return nil, err
	}
	idIdx, estIdx, taskIdx, objIdx, infoIdx :=
		t.col("id"), t.col("estRows"), t.col("task"), t.col("access object"), t.col("operator info")
	if idIdx < 0 {
		return nil, fmt.Errorf("convert: TiDB table lacks id column")
	}
	var tree treeBuilder
	for r := range t.rows {
		id := t.cell(r, idIdx)
		depth := 0
		namePart := strings.TrimSpace(id)
		if i := strings.IndexAny(id, "└├"); i >= 0 {
			// Tree art: two display columns ("  " or "│ ") per level before
			// the connector.
			prefix := id[:i]
			depth = len([]rune(prefix))/2 + 1
			namePart = strings.TrimLeft(id[i:], "└├─ ")
		}
		node := c.nodeFromFields(tidbFields{
			ID:           strings.TrimSpace(namePart),
			EstRows:      t.cell(r, estIdx),
			TaskType:     t.cell(r, taskIdx),
			AccessObject: t.cell(r, objIdx),
			OperatorInfo: t.cell(r, infoIdx),
		}, ar)
		if err := tree.add(ar, node, depth); err != nil {
			return nil, fmt.Errorf("convert: TiDB row %d: %w", r+1, err)
		}
	}
	if tree.root == nil {
		return nil, fmt.Errorf("convert: empty TiDB plan")
	}
	return &core.Plan{Source: "tidb", Root: foldTiDBSelections(tree.root)}, nil
}

// foldTiDBSelections implements the paper's special case: TiDB's Selection
// represents the condition its child's output satisfies, so it is deemed a
// property, not an operation. Each Selection node is replaced by its child
// with the condition attached as a Configuration property.
func foldTiDBSelections(n *core.Node) *core.Node {
	for i, ch := range n.Children {
		n.Children[i] = foldTiDBSelections(ch)
	}
	if n.Op.Name == "Filter" && len(n.Children) == 1 {
		child := n.Children[0]
		for _, pr := range n.Properties {
			if pr.Category == core.Configuration {
				child.Properties = append(child.Properties, core.Property{
					Category: core.Configuration, Name: "filter", Value: pr.Value,
				})
			}
		}
		return child
	}
	return n
}

// ------------------------------------------------------------------ SQLite

type sqliteConverter struct{ reg *core.Registry }

func (c *sqliteConverter) Dialect() string { return "sqlite" }

var sqliteOperators = []string{
	"USE TEMP B-TREE FOR GROUP BY", "USE TEMP B-TREE FOR ORDER BY",
	"USE TEMP B-TREE FOR DISTINCT", "LEFT-MOST SUBQUERY", "COMPOUND QUERY",
	"UNION ALL USING TEMP B-TREE", "UNION USING TEMP B-TREE",
	"INTERSECT USING TEMP B-TREE", "EXCEPT USING TEMP B-TREE",
	"CORRELATED SCALAR SUBQUERY", "CO-ROUTINE", "MATERIALIZE",
	"SEARCH", "SCAN",
}

func (c *sqliteConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

//uplan:hotpath
func (c *sqliteConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	// EXPLAIN QUERY PLAN is a list of steps: later top-level steps go
	// under the first, which keeps their order within one tree.
	tree := treeBuilder{adopt: true}
	for it := newLineIter(s); it.next(); {
		line := strings.TrimRight(it.line, " ")
		if strings.TrimSpace(line) == "" || strings.TrimSpace(line) == "QUERY PLAN" {
			continue
		}
		// Tree art is built from three-character groups: "   " or "|  "
		// continuations followed by a "|--" or "`--" connector.
		depth := 0
		body := line
		pos := 0
		for {
			if strings.HasPrefix(line[pos:], "|--") || strings.HasPrefix(line[pos:], "`--") {
				depth = pos/3 + 1
				body = strings.TrimSpace(line[pos+3:])
				break
			}
			if strings.HasPrefix(line[pos:], "|  ") || strings.HasPrefix(line[pos:], "   ") {
				pos += 3
				continue
			}
			body = strings.TrimSpace(line)
			break
		}
		if err := tree.add(ar, c.parseLine(body, ar), depth); err != nil {
			return nil, fmt.Errorf("convert: line %d: %w", it.n, err)
		}
	}
	if tree.root == nil {
		return nil, fmt.Errorf("convert: empty SQLite plan")
	}
	return &core.Plan{Source: "sqlite", Root: tree.root}, nil
}

//uplan:hotpath
func (c *sqliteConverter) parseLine(body string, ar *core.PlanArena) *core.Node {
	name := body
	rest := ""
	for _, opName := range sqliteOperators {
		if strings.HasPrefix(body, opName) {
			name = opName
			rest = strings.TrimSpace(body[len(opName):])
			break
		}
	}
	// Set operations carry a "USING TEMP B-TREE" method suffix; the
	// operation is the set operator itself.
	method := ""
	for _, setOp := range []string{"UNION ALL", "UNION", "INTERSECT", "EXCEPT"} {
		if name == setOp+" USING TEMP B-TREE" {
			name = setOp
			method = "TEMP B-TREE"
			break
		}
	}
	op := c.reg.ResolveOperation("sqlite", name)
	node := ar.NewNodeIn(op.Category, op.Name)
	if method != "" {
		addProp(c.reg, "sqlite", ar, node, "method", core.Str(method))
	}
	if rest == "" {
		return node
	}
	// "t1 USING AUTOMATIC COVERING INDEX (c0=?)" / "t0" / "t2 USING INDEX i".
	if i := strings.Index(rest, " USING "); i >= 0 {
		addProp(c.reg, "sqlite", ar, node, "name object", core.Str(rest[:i]))
		using := rest[i+7:]
		key := "USING INDEX"
		if strings.Contains(using, "COVERING INDEX") {
			key = "USING COVERING INDEX"
		}
		addProp(c.reg, "sqlite", ar, node, key, core.Str(using))
	} else {
		addProp(c.reg, "sqlite", ar, node, "name object", core.Str(rest))
	}
	return node
}

// ---------------------------------------------------------------- SparkSQL

type sparkConverter struct{ reg *core.Registry }

func (c *sparkConverter) Dialect() string { return "sparksql" }

func (c *sparkConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

//uplan:hotpath
func (c *sparkConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	var tree treeBuilder
	for it := newLineIter(s); it.next(); {
		line := strings.TrimRight(it.line, " ")
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "== ") {
			continue
		}
		depth := 0
		body := line
		if i := strings.Index(line, "+- "); i >= 0 {
			depth = i/3 + 1
			body = line[i+3:]
		}
		body = strings.TrimSpace(body)
		name := body
		args := ""
		if i := strings.IndexAny(body, "( ["); i > 0 {
			name = strings.TrimSpace(body[:i])
			args = strings.TrimSpace(body[i:])
		}
		// "WholeStageCodegen (1)" keeps its stage id as a status property.
		op := c.reg.ResolveOperation("sparksql", name)
		node := ar.NewNodeIn(op.Category, op.Name)
		if args != "" {
			addProp(c.reg, "sparksql", ar, node, "args", core.Str(args))
		}
		if err := tree.add(ar, node, depth); err != nil {
			return nil, fmt.Errorf("convert: line %d: %w", it.n, err)
		}
	}
	if tree.root == nil {
		return nil, fmt.Errorf("convert: no Spark physical plan found")
	}
	return &core.Plan{Source: "sparksql", Root: tree.root}, nil
}

// ------------------------------------------------------------------- Neo4j

type neo4jConverter struct{ reg *core.Registry }

func (c *neo4jConverter) Dialect() string { return "neo4j" }

func (c *neo4jConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

func (c *neo4jConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "{") {
		return c.convertJSON(s, ar)
	}
	return c.convertTable(s, ar)
}

func (c *neo4jConverter) convertTable(s string, ar *core.PlanArena) (*core.Plan, error) {
	plan := &core.Plan{Source: "neo4j"}
	for it := newLineIter(s); it.next(); {
		line := strings.TrimSpace(it.line)
		switch {
		case strings.HasPrefix(line, "Planner "):
			addPlanProp(c.reg, "neo4j", ar, plan, "planner", parseScalar(strings.TrimPrefix(line, "Planner ")))
		case strings.HasPrefix(line, "Runtime version "):
			addPlanProp(c.reg, "neo4j", ar, plan, "runtime version", parseScalar(strings.TrimPrefix(line, "Runtime version ")))
		case strings.HasPrefix(line, "Total database accesses:"):
			rest := strings.TrimPrefix(line, "Total database accesses:")
			first := rest
			if i := strings.IndexByte(rest, ','); i >= 0 {
				first = rest[:i]
				mem := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), "total allocated memory:"))
				addPlanProp(c.reg, "neo4j", ar, plan, "DbHits", parseScalar(first))
				addPlanProp(c.reg, "neo4j", ar, plan, "Memory", parseScalar(mem))
			} else {
				addPlanProp(c.reg, "neo4j", ar, plan, "DbHits", parseScalar(first))
			}
		}
	}
	// The plan table itself parses straight from the input: aligned-table
	// parsing skips the prefix/summary lines above on its own, so no
	// filtered copy of the table lines is built.
	t, err := parseAlignedTable(s)
	if err != nil {
		if len(plan.Properties) > 0 {
			return plan, nil
		}
		return nil, fmt.Errorf("convert: no Neo4j plan found")
	}
	// Like SQLite's, Neo4j's plan is a list of steps: later top-level
	// operators go under the first.
	tree := treeBuilder{adopt: true}
	for r := range t.rows {
		opCell := t.cell(r, 0)
		plus := strings.Index(opCell, "+")
		if plus < 0 {
			continue
		}
		// Nesting is encoded as "| " repetitions before the "+".
		depth := strings.Count(opCell[:plus], "|")
		name := strings.TrimSpace(opCell[plus+1:])
		op := c.reg.ResolveOperation("neo4j", name)
		node := ar.NewNodeIn(op.Category, op.Name)
		for i := 1; i < len(t.header); i++ {
			val := strings.TrimSpace(t.cell(r, i))
			if val == "" {
				continue
			}
			addProp(c.reg, "neo4j", ar, node, t.header[i], parseScalar(val))
		}
		if err := tree.add(ar, node, depth); err != nil {
			return nil, fmt.Errorf("convert: Neo4j row %d: %w", r+1, err)
		}
	}
	plan.Root = tree.root
	if plan.Root == nil && len(plan.Properties) == 0 {
		return nil, fmt.Errorf("convert: no Neo4j plan found")
	}
	return plan, nil
}

// ---------------------------------------------------------------- InfluxDB

type influxConverter struct{ reg *core.Registry }

func (c *influxConverter) Dialect() string { return "influxdb" }

func (c *influxConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

func (c *influxConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	plan := &core.Plan{Source: "influxdb"}
	for it := newLineIter(s); it.next(); {
		line := strings.TrimSpace(it.line)
		if line == "" {
			continue
		}
		key, val, ok := splitKV(line)
		if !ok {
			continue
		}
		addPlanProp(c.reg, "influxdb", ar, plan, key, parseScalar(val))
	}
	if len(plan.Properties) == 0 {
		return nil, fmt.Errorf("convert: no InfluxDB plan properties found")
	}
	return plan, nil
}
