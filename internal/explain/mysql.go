package explain

import (
	"fmt"
	"strings"
)

// MySQL serializations: the TREE format (EXPLAIN FORMAT=TREE), the JSON
// format (EXPLAIN FORMAT=JSON, simplified to the operation/cost_info
// nesting), and the classic tabular EXPLAIN (paper Figure 2).

// MySQLTree renders the TREE format: "-> " prefixed lines, four-space
// indentation per level, inline cost annotations.
func MySQLTree(p *Plan) string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("    ", depth))
		b.WriteString("-> ")
		b.WriteString(mysqlTitle(n))
		if cost, ok := n.Prop("total_cost"); ok {
			rows, _ := n.Prop("rows")
			fmt.Fprintf(&b, "  (cost=%s rows=%s)", FormatVal(cost), FormatVal(rows))
		}
		if ar, ok := n.Prop("actual_rows"); ok {
			at, _ := n.Prop("actual_time_ms")
			fmt.Fprintf(&b, " (actual time=0.000..%s rows=%s loops=1)",
				FormatVal(at), FormatVal(ar))
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	return b.String()
}

// mysqlTitle composes the TREE line text: operator name plus its inline
// detail (filter text, "on <table>", "using <index>").
func mysqlTitle(n *Node) string {
	title := n.Name
	if detail, ok := n.Prop("detail"); ok {
		title += ": " + FormatVal(detail)
	}
	if n.Object != "" {
		title += " on " + n.Object
	}
	if key, ok := n.Prop("key"); ok {
		title += " using " + FormatVal(key)
	}
	if cond, ok := n.Prop("condition"); ok {
		title += " (" + FormatVal(cond) + ")"
	}
	return title
}

func mysqlNodeJSON(n *Node) map[string]any {
	m := map[string]any{"operation": mysqlTitle(n)}
	ci := map[string]any{}
	if c, ok := n.Prop("total_cost"); ok {
		ci["query_cost"] = FormatVal(c)
	}
	if rc, ok := n.Prop("read_cost"); ok {
		ci["read_cost"] = FormatVal(rc)
	}
	if ec, ok := n.Prop("eval_cost"); ok {
		ci["eval_cost"] = FormatVal(ec)
	}
	if len(ci) > 0 {
		m["cost_info"] = ci
	}
	if rows, ok := n.Prop("rows"); ok {
		m["rows_examined_per_scan"] = rows
	}
	if n.Object != "" {
		m["table_name"] = n.Object
	}
	if key, ok := n.Prop("key"); ok {
		m["key"] = key
	}
	if cond, ok := n.Prop("condition"); ok {
		m["attached_condition"] = cond
	}
	if ar, ok := n.Prop("actual_rows"); ok {
		m["actual_rows"] = ar
	}
	if len(n.Children) > 0 {
		var kids []any
		for _, c := range n.Children {
			kids = append(kids, mysqlNodeJSON(c))
		}
		m["inputs"] = kids
	}
	return m
}

// MySQLJSON renders the (simplified) EXPLAIN FORMAT=JSON document: a
// query_block wrapping the operation tree.
func MySQLJSON(p *Plan) (string, error) {
	out, err := marshalJSON(mysqlJSONDoc(p))
	if err != nil {
		return "", fmt.Errorf("explain: mysql json: %w", err)
	}
	return out, nil
}

func mysqlJSONDoc(p *Plan) any {
	qb := map[string]any{"select_id": 1}
	if p.Root != nil {
		if c, ok := p.Root.Prop("total_cost"); ok {
			qb["cost_info"] = map[string]any{"query_cost": FormatVal(c)}
		}
		qb["plan"] = mysqlNodeJSON(p.Root)
	}
	return map[string]any{"query_block": qb}
}

// MySQLTable renders the classic tabular EXPLAIN: one row per table
// access, as in paper Figure 2.
func MySQLTable(p *Plan) string {
	type rowT struct{ id, selectType, table, typ, key, rows, extra string }
	var rows []rowT
	p.Walk(func(n *Node, _ int) {
		if n.Object == "" {
			return
		}
		typ := "ALL"
		key := "NULL"
		var extras []string
		if k, ok := n.Prop("key"); ok {
			key = FormatVal(k)
			typ = "ref"
			if strings.Contains(strings.ToLower(n.Name), "range") {
				typ = "range"
			}
			if strings.Contains(strings.ToLower(n.Name), "covering") {
				typ = "index"
				extras = append(extras, "Using index")
			}
		}
		if _, ok := n.Prop("condition"); ok {
			extras = append(extras, "Using where")
		}
		est := ""
		if r, ok := n.Prop("rows"); ok {
			est = FormatVal(r)
		}
		extra := strings.Join(extras, "; ")
		if extra == "" {
			extra = "NULL"
		}
		rows = append(rows, rowT{"1", "SIMPLE", n.Object, typ, key, est, extra})
	})
	headers := []string{"id", "select_type", "table", "type", "key", "rows", "Extra"}
	cells := make([][]string, 0, len(rows)+1)
	cells = append(cells, headers)
	for _, r := range rows {
		cells = append(cells, []string{r.id, r.selectType, r.table, r.typ, r.key, r.rows, r.extra})
	}
	return renderASCIITable(cells)
}

// renderASCIITable renders rows as a +----+ bordered table; the first row
// is the header.
func renderASCIITable(cells [][]string) string {
	if len(cells) == 0 {
		return ""
	}
	widths := make([]int, len(cells[0]))
	for _, row := range cells {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	sep := func() {
		for _, w := range widths {
			b.WriteString("+" + strings.Repeat("-", w+2))
		}
		b.WriteString("+\n")
	}
	writeRow := func(row []string) {
		for i, c := range row {
			fmt.Fprintf(&b, "| %-*s ", widths[i], c)
		}
		b.WriteString("|\n")
	}
	sep()
	writeRow(cells[0])
	sep()
	for _, row := range cells[1:] {
		writeRow(row)
	}
	sep()
	return b.String()
}
