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
	type frame struct {
		node *core.Node
		col  int // column of the operator name
	}
	stack := make([]frame, 0, 8)
	sawTree := false
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
			if err != nil {
				return nil, fmt.Errorf("convert: line %d: %w", it.n, err)
			}
			for len(stack) > 0 && stack[len(stack)-1].col >= nameCol {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				if plan.Root != nil {
					return nil, fmt.Errorf("convert: line %d: multiple root operators", it.n)
				}
				plan.Root = node
			} else {
				ar.AddChildIn(stack[len(stack)-1].node, node)
			}
			stack = append(stack, frame{node: node, col: nameCol})
			sawTree = true
		case indentDepth(raw) == 0:
			// Plan-level property ("Planning Time: 0.124 ms").
			key, val, ok := splitKV(raw)
			if !ok {
				return nil, fmt.Errorf("convert: line %d: unparseable plan line %q", it.n, raw)
			}
			addPlanProp(c.reg, "postgresql", ar, plan, key, strings.TrimSuffix(val, " ms"))
		default:
			// Node property line; belongs to the deepest open node.
			if len(stack) == 0 {
				return nil, fmt.Errorf("convert: line %d: property before any operator", it.n)
			}
			key, val, ok := splitKV(raw)
			if !ok {
				continue // tolerate free-form annotation lines
			}
			addProp(c.reg, "postgresql", ar, stack[len(stack)-1].node, key, val)
		}
	}
	if !sawTree && plan.Root == nil && len(plan.Properties) == 0 {
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
		addTypedProp(ar, node, core.Configuration, "name object", core.Str(object))
	}
	// Parse cost annotation pieces.
	if se, te, ok := parseCostRange(ann, "cost="); ok {
		addTypedProp(ar, node, core.Cost, "startup cost", core.Num(se))
		addTypedProp(ar, node, core.Cost, "total cost", core.Num(te))
	}
	if v, ok := parseKVNum(ann, "rows=", false); ok {
		addTypedProp(ar, node, core.Cardinality, "estimated rows", core.Num(v))
	}
	if v, ok := parseKVNum(ann, "width=", false); ok {
		addTypedProp(ar, node, core.Cardinality, "estimated width", core.Num(v))
	}
	if _, at, ok := parseCostRange(ann, "actual time="); ok {
		addTypedProp(ar, node, core.Status, "actual time", core.Num(at))
		if v, ok := parseKVNum(ann, "rows=", true); ok {
			addTypedProp(ar, node, core.Cardinality, "actual rows", core.Num(v))
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

// parseCostRange extracts "key=a..b" returning both numbers; the range is
// split in place (no intermediate slice).
func parseCostRange(s, key string) (float64, float64, bool) {
	i := strings.Index(s, key)
	if i < 0 {
		return 0, 0, false
	}
	rest := s[i+len(key):]
	end := strings.IndexAny(rest, " )")
	if end < 0 {
		end = len(rest)
	}
	rest = rest[:end]
	dots := strings.Index(rest, "..")
	if dots < 0 {
		return 0, 0, false
	}
	a := parseScalar(rest[:dots])
	b := parseScalar(rest[dots+2:])
	if a.Kind != core.KindNumber || b.Kind != core.KindNumber {
		return 0, 0, false
	}
	return a.Num, b.Num, true
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
	plan := &core.Plan{Source: "mysql"}
	type frame struct {
		node  *core.Node
		depth int
	}
	stack := make([]frame, 0, 8)
	for it := newLineIter(s); it.next(); {
		raw := it.line
		if strings.TrimSpace(raw) == "" {
			continue
		}
		arrow := strings.Index(raw, "-> ")
		if arrow < 0 {
			continue
		}
		depth := arrow / 4
		title := strings.TrimSpace(raw[arrow+3:])
		node := c.parseTreeLine(title, ar)
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if plan.Root != nil {
				return nil, fmt.Errorf("convert: line %d: multiple MySQL roots", it.n)
			}
			plan.Root = node
		} else {
			ar.AddChildIn(stack[len(stack)-1].node, node)
		}
		stack = append(stack, frame{node, depth})
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: no MySQL TREE plan found in input")
	}
	return plan, nil
}

func (c *mysqlConverter) parseTreeLine(title string, ar *core.PlanArena) *core.Node {
	node := ar.NewNodeIn("", "")
	c.parseTreeLineInto(node, title, ar)
	return node
}

// parseTreeLineInto parses a TREE operator title into an existing node —
// the JSON decoder's "operation" strings reuse this without building (and
// discarding) a second arena node per operator.
//
//uplan:hotpath
func (c *mysqlConverter) parseTreeLineInto(node *core.Node, title string, ar *core.PlanArena) {
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
	node.Op = c.reg.ResolveOperation("mysql", name)
	rest = strings.TrimPrefix(rest, ":")
	rest = strings.TrimSpace(rest)
	if i := strings.Index(rest, " using "); i >= 0 {
		addTypedProp(ar, node, core.Configuration, "access object", core.Str(strings.TrimSpace(rest[i+7:])))
		rest = strings.TrimSpace(rest[:i])
	}
	if strings.HasPrefix(rest, "on ") {
		addTypedProp(ar, node, core.Configuration, "name object", core.Str(strings.TrimPrefix(rest, "on ")))
	} else if rest != "" {
		name, cat := c.reg.ResolveProperty("mysql", "attached_condition")
		addTypedProp(ar, node, cat, name, core.Str(rest))
	}
	if v, ok := parseKVNum(ann, "cost=", false); ok {
		addTypedProp(ar, node, core.Cost, "total cost", core.Num(v))
	}
	if v, ok := parseKVNum(ann, "rows=", false); ok {
		addTypedProp(ar, node, core.Cardinality, "estimated rows", core.Num(v))
	}
	if i := strings.Index(ann, "actual time="); i >= 0 {
		if v, ok := parseKVNum(ann[i:], "rows=", false); ok {
			addTypedProp(ar, node, core.Cardinality, "actual rows", core.Num(v))
		}
	}
}

// convertTable parses the classic tabular EXPLAIN: each row is one table
// access; the result is a left-deep chain.
//
//uplan:hotpath
func (c *mysqlConverter) convertTable(s string, ar *core.PlanArena) (*core.Plan, error) {
	rows, header, err := parseASCIITable(s)
	if err != nil {
		return nil, err
	}
	col := func(name string) int {
		for i, h := range header {
			if strings.EqualFold(h, name) {
				return i
			}
		}
		return -1
	}
	tableIdx, typeIdx, keyIdx, rowsIdx, extraIdx :=
		col("table"), col("type"), col("key"), col("rows"), col("Extra")
	plan := &core.Plan{Source: "mysql"}
	var prev *core.Node
	for _, r := range rows {
		opName := "Table scan"
		if typeIdx >= 0 {
			switch strings.ToLower(r[typeIdx]) {
			case "ref", "eq_ref", "const":
				opName = "Index lookup"
			case "range":
				opName = "Index range scan"
			case "index":
				opName = "Covering index scan"
			}
		}
		op := c.reg.ResolveOperation("mysql", opName)
		node := ar.NewNodeIn(op.Category, op.Name)
		if tableIdx >= 0 && r[tableIdx] != "" {
			addTypedProp(ar, node, core.Configuration, "name object", core.Str(r[tableIdx]))
		}
		if keyIdx >= 0 && r[keyIdx] != "" && r[keyIdx] != "NULL" {
			addTypedProp(ar, node, core.Configuration, "access object", core.Str(r[keyIdx]))
		}
		if rowsIdx >= 0 && r[rowsIdx] != "" {
			addTypedProp(ar, node, core.Cardinality, "estimated rows", parseScalar(r[rowsIdx]))
		}
		if extraIdx >= 0 && r[extraIdx] != "" && r[extraIdx] != "NULL" {
			addTypedProp(ar, node, core.Configuration, "extra", core.Str(r[extraIdx]))
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

// parseAlignedTable parses a +---+ bordered table by column offsets taken
// from the border line, preserving leading whitespace inside cells (needed
// for tree-art columns). Cells are right-trimmed only.
func parseAlignedTable(s string) ([][]string, []string, error) {
	var spans [][2]int
	var header []string
	var rows [][]string
	for it := newLineIter(s); it.next(); {
		line := strings.TrimRight(it.line, " \r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "+") && spans == nil {
			// Border line: derive column spans between '+' markers.
			start := 0
			for i := 1; i < len(line); i++ {
				if line[i] == '+' {
					spans = append(spans, [2]int{start + 1, i})
					start = i
				}
			}
			continue
		}
		if spans == nil || !strings.HasPrefix(line, "|") {
			continue
		}
		if strings.HasPrefix(line, "+") {
			continue
		}
		cells := make([]string, 0, len(spans))
		for _, sp := range spans {
			lo, hi := sp[0], sp[1]
			if lo >= len(line) {
				cells = append(cells, "")
				continue
			}
			if hi > len(line) {
				hi = len(line)
			}
			cell := strings.TrimRight(line[lo:hi], " ")
			// Drop the single leading padding space the renderer adds.
			cell = strings.TrimPrefix(cell, " ")
			cells = append(cells, cell)
		}
		if header == nil {
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			header = cells
			continue
		}
		rows = append(rows, cells)
	}
	if header == nil {
		return nil, nil, fmt.Errorf("convert: no aligned table found in input")
	}
	return rows, header, nil
}

// parseASCIITable parses a +---+ bordered table into header + rows.
func parseASCIITable(s string) ([][]string, []string, error) {
	var header []string
	var rows [][]string
	for it := newLineIter(s); it.next(); {
		line := strings.TrimSpace(it.line)
		if line == "" || strings.HasPrefix(line, "+") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			continue
		}
		// Walk the "|"-separated cells in place; the segment after the last
		// "|" (usually empty) is dropped, as strings.Split-and-trim did.
		var cells []string
		if header != nil {
			cells = make([]string, 0, len(header))
		}
		for rest := line[1:]; ; {
			i := strings.IndexByte(rest, '|')
			if i < 0 {
				break
			}
			cells = append(cells, strings.TrimSpace(rest[:i]))
			rest = rest[i+1:]
		}
		if header == nil {
			header = cells
			continue
		}
		rows = append(rows, cells)
	}
	if header == nil {
		return nil, nil, fmt.Errorf("convert: no table found in input")
	}
	return rows, header, nil
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
	rows, header, err := parseAlignedTable(s)
	if err != nil {
		return nil, err
	}
	col := func(name string) int {
		for i, h := range header {
			if strings.EqualFold(h, name) {
				return i
			}
		}
		return -1
	}
	idIdx, estIdx, taskIdx, objIdx, infoIdx :=
		col("id"), col("estRows"), col("task"), col("access object"), col("operator info")
	if idIdx < 0 {
		return nil, fmt.Errorf("convert: TiDB table lacks id column")
	}
	plan := &core.Plan{Source: "tidb"}
	type frame struct {
		node  *core.Node
		depth int
	}
	stack := make([]frame, 0, 8)
	for _, r := range rows {
		id := r[idIdx]
		depth := 0
		namePart := strings.TrimSpace(id)
		if i := strings.IndexAny(id, "└├"); i >= 0 {
			// Tree art: two display columns ("  " or "│ ") per level before
			// the connector.
			prefix := id[:i]
			depth = len([]rune(prefix))/2 + 1
			namePart = strings.TrimLeft(id[i:], "└├─ ")
		}
		base, suffix := stripOperatorSuffix(strings.TrimSpace(namePart))
		op := c.reg.ResolveOperation("tidb", base)
		node := ar.NewNodeIn(op.Category, op.Name)
		if suffix != "" {
			addTypedProp(ar, node, core.Status, "operator id", core.Str(suffix))
		}
		if estIdx >= 0 && r[estIdx] != "" {
			addTypedProp(ar, node, core.Cardinality, "estimated rows", parseScalar(r[estIdx]))
		}
		if taskIdx >= 0 && r[taskIdx] != "" {
			name, cat := c.reg.ResolveProperty("tidb", "task")
			addTypedProp(ar, node, cat, name, core.Str(r[taskIdx]))
		}
		if objIdx >= 0 && r[objIdx] != "" {
			addTypedProp(ar, node, core.Configuration, "access object", core.Str(r[objIdx]))
		}
		if infoIdx >= 0 && r[infoIdx] != "" {
			name, cat := c.reg.ResolveProperty("tidb", "operator info")
			addTypedProp(ar, node, cat, name, core.Str(r[infoIdx]))
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if plan.Root != nil {
				return nil, fmt.Errorf("convert: multiple TiDB roots")
			}
			plan.Root = node
		} else {
			ar.AddChildIn(stack[len(stack)-1].node, node)
		}
		stack = append(stack, frame{node, depth})
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: empty TiDB plan")
	}
	plan.Root = foldTiDBSelections(plan.Root)
	return plan, nil
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
	plan := &core.Plan{Source: "sqlite"}
	type frame struct {
		node  *core.Node
		depth int
	}
	stack := make([]frame, 0, 8)
	// The virtual root only collects top-level steps; it is never part of
	// the returned tree, so it lives outside the arena.
	virtualRoot := &core.Node{}
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
		node := c.parseLine(body, ar)
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			virtualRoot.Children = append(virtualRoot.Children, node)
		} else {
			ar.AddChildIn(stack[len(stack)-1].node, node)
		}
		stack = append(stack, frame{node, depth})
	}
	switch len(virtualRoot.Children) {
	case 0:
		return nil, fmt.Errorf("convert: empty SQLite plan")
	case 1:
		plan.Root = virtualRoot.Children[0]
	default:
		// Multiple top-level steps: SQLite's EQP is a list; wrap them under
		// the first step to preserve order within one tree.
		plan.Root = virtualRoot.Children[0]
		for _, extra := range virtualRoot.Children[1:] {
			ar.AddChildIn(plan.Root, extra)
		}
	}
	return plan, nil
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
		addTypedProp(ar, node, core.Configuration, "method", core.Str(method))
	}
	if rest == "" {
		return node
	}
	// "t1 USING AUTOMATIC COVERING INDEX (c0=?)" / "t0" / "t2 USING INDEX i".
	if i := strings.Index(rest, " USING "); i >= 0 {
		addTypedProp(ar, node, core.Configuration, "name object", core.Str(rest[:i]))
		using := rest[i+7:]
		key := "USING INDEX"
		if strings.Contains(using, "COVERING INDEX") {
			key = "USING COVERING INDEX"
		}
		name, cat := c.reg.ResolveProperty("sqlite", key)
		addTypedProp(ar, node, cat, name, core.Str(using))
	} else {
		addTypedProp(ar, node, core.Configuration, "name object", core.Str(rest))
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
	plan := &core.Plan{Source: "sparksql"}
	type frame struct {
		node  *core.Node
		depth int
	}
	stack := make([]frame, 0, 8)
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
			addTypedProp(ar, node, core.Configuration, "args", core.Str(args))
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if plan.Root != nil {
				return nil, fmt.Errorf("convert: multiple Spark roots")
			}
			plan.Root = node
		} else {
			ar.AddChildIn(stack[len(stack)-1].node, node)
		}
		stack = append(stack, frame{node, depth})
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: no Spark physical plan found")
	}
	return plan, nil
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
			addPlanProp(c.reg, "neo4j", ar, plan, "planner", strings.TrimPrefix(line, "Planner "))
		case strings.HasPrefix(line, "Runtime version "):
			addPlanProp(c.reg, "neo4j", ar, plan, "runtime version", strings.TrimPrefix(line, "Runtime version "))
		case strings.HasPrefix(line, "Total database accesses:"):
			rest := strings.TrimPrefix(line, "Total database accesses:")
			first := rest
			if i := strings.IndexByte(rest, ','); i >= 0 {
				first = rest[:i]
				mem := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), "total allocated memory:"))
				addPlanProp(c.reg, "neo4j", ar, plan, "DbHits", strings.TrimSpace(first))
				addPlanProp(c.reg, "neo4j", ar, plan, "Memory", mem)
			} else {
				addPlanProp(c.reg, "neo4j", ar, plan, "DbHits", strings.TrimSpace(first))
			}
		}
	}
	// The plan table itself parses straight from the input: aligned-table
	// parsing skips the prefix/summary lines above on its own, so no
	// filtered copy of the table lines is built.
	rows, header, err := parseAlignedTable(s)
	if err != nil {
		if len(plan.Properties) > 0 {
			return plan, nil
		}
		return nil, fmt.Errorf("convert: no Neo4j plan found")
	}
	type frame struct {
		node  *core.Node
		depth int
	}
	stack := make([]frame, 0, 8)
	for _, cells := range rows {
		opCell := cells[0]
		plus := strings.Index(opCell, "+")
		if plus < 0 {
			continue
		}
		// Nesting is encoded as "| " repetitions before the "+".
		depth := strings.Count(opCell[:plus], "|")
		name := strings.TrimSpace(opCell[plus+1:])
		op := c.reg.ResolveOperation("neo4j", name)
		node := ar.NewNodeIn(op.Category, op.Name)
		for i := 1; i < len(cells) && i < len(header); i++ {
			val := strings.TrimSpace(cells[i])
			if val == "" {
				continue
			}
			key := header[i]
			if strings.EqualFold(key, "Estimated Rows") {
				addTypedProp(ar, node, core.Cardinality, "estimated rows", parseScalar(val))
				continue
			}
			addProp(c.reg, "neo4j", ar, node, key, val)
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if plan.Root == nil {
				plan.Root = node
			} else {
				ar.AddChildIn(plan.Root, node)
			}
		} else {
			ar.AddChildIn(stack[len(stack)-1].node, node)
		}
		stack = append(stack, frame{node, depth})
	}
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
		addPlanProp(c.reg, "influxdb", ar, plan, key, val)
	}
	if len(plan.Properties) == 0 {
		return nil, fmt.Errorf("convert: no InfluxDB plan properties found")
	}
	return plan, nil
}
