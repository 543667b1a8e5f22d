package explain

import (
	"fmt"
	"strings"
)

// PostgreSQL serializations. The text format follows the EXPLAIN output
// documented for PostgreSQL 14 (paper Listing 1): operator lines with
// "(cost=startup..total rows=N width=W)" annotations, "->"-prefixed
// children indented six columns per level, property lines beneath their
// operator, and plan-level lines ("Planning Time: …") at the end.

// pgInlineProps are rendered inside the parenthesized annotation rather
// than as property lines.
func pgCostAnnotation(n *Node) string {
	sc, _ := n.Prop("startup_cost")
	tc, _ := n.Prop("total_cost")
	rows, _ := n.Prop("rows")
	width, _ := n.Prop("width")
	ann := fmt.Sprintf("(cost=%s..%s rows=%s width=%s)",
		costVal(sc), costVal(tc), FormatVal(rows), FormatVal(width))
	if ar, ok := n.Prop("actual_rows"); ok {
		at, _ := n.Prop("actual_time_ms")
		loops, lok := n.Prop("loops")
		if !lok {
			loops = 1
		}
		ann += fmt.Sprintf(" (actual time=0.000..%s rows=%s loops=%s)",
			FormatVal(at), FormatVal(ar), FormatVal(loops))
	}
	return ann
}

// costVal renders costs the way PostgreSQL does: always two decimals.
func costVal(v any) string {
	switch t := v.(type) {
	case float64:
		return fmt.Sprintf("%.2f", t)
	case int:
		return fmt.Sprintf("%d.00", t)
	case int64:
		return fmt.Sprintf("%d.00", t)
	}
	return FormatVal(v)
}

var pgHiddenProps = map[string]bool{
	"startup_cost": true, "total_cost": true, "rows": true, "width": true,
	"actual_rows": true, "actual_time_ms": true, "loops": true,
}

// PostgresText renders the plan in PostgreSQL's text format.
func PostgresText(p *Plan) string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		nameCol := 0
		if depth > 0 {
			nameCol = 6 * depth
			b.WriteString(strings.Repeat(" ", nameCol-4))
			b.WriteString("->  ")
		}
		title := n.Name
		if n.Object != "" {
			title += " on " + n.Object
		}
		fmt.Fprintf(&b, "%s  %s\n", title, pgCostAnnotation(n))
		for _, pr := range n.Props {
			if pgHiddenProps[pr.Key] {
				continue
			}
			b.WriteString(strings.Repeat(" ", nameCol+2))
			fmt.Fprintf(&b, "%s: %s\n", pr.Key, FormatVal(pr.Val))
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	for _, pr := range p.PlanProps {
		fmt.Fprintf(&b, "%s: %s\n", pr.Key, FormatVal(pr.Val))
	}
	return b.String()
}

// pgKey names a native property the way PostgreSQL's JSON and YAML
// formats do: the estimate and actual keys take their documented names,
// every other key is already PostgreSQL's own.
func pgKey(key string) string {
	switch key {
	case "startup_cost":
		return "Startup Cost"
	case "total_cost":
		return "Total Cost"
	case "rows":
		return "Plan Rows"
	case "width":
		return "Plan Width"
	case "actual_rows":
		return "Actual Rows"
	case "actual_time_ms":
		return "Actual Total Time"
	case "loops":
		return "Actual Loops"
	}
	return key
}

// pgNodeJSON builds the canonical PostgreSQL JSON plan object.
func pgNodeJSON(n *Node) map[string]any {
	m := map[string]any{"Node Type": n.Name}
	if n.Object != "" {
		m["Relation Name"] = n.Object
	}
	for _, pr := range n.Props {
		m[pgKey(pr.Key)] = pr.Val
	}
	if len(n.Children) > 0 {
		var kids []any
		for _, c := range n.Children {
			child := pgNodeJSON(c)
			child["Parent Relationship"] = "Outer"
			kids = append(kids, child)
		}
		m["Plans"] = kids
	}
	return m
}

// PostgresJSON renders the plan in PostgreSQL's JSON format:
// a one-element array holding {"Plan": …, "Planning Time": …}.
func PostgresJSON(p *Plan) (string, error) {
	out, err := marshalJSON(postgresJSONDoc(p))
	if err != nil {
		return "", fmt.Errorf("explain: postgres json: %w", err)
	}
	return out, nil
}

func postgresJSONDoc(p *Plan) any {
	top := map[string]any{}
	if p.Root != nil {
		top["Plan"] = pgNodeJSON(p.Root)
	}
	for _, pr := range p.PlanProps {
		top[pr.Key] = pr.Val
	}
	return []any{top}
}

// PostgresXML renders the plan in PostgreSQL's XML format.
func PostgresXML(p *Plan) string {
	var b strings.Builder
	b.WriteString("<explain xmlns=\"http://www.postgresql.org/2009/explain\">\n <Query>\n")
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		b.WriteString(indent + "<Plan>\n")
		fmt.Fprintf(&b, "%s <Node-Type>%s</Node-Type>\n", indent, xmlEscape(n.Name))
		if n.Object != "" {
			fmt.Fprintf(&b, "%s <Relation-Name>%s</Relation-Name>\n", indent, xmlEscape(n.Object))
		}
		for _, pr := range n.Props {
			tag := strings.ReplaceAll(strings.Title(strings.ReplaceAll(pr.Key, "_", " ")), " ", "-")
			fmt.Fprintf(&b, "%s <%s>%s</%s>\n", indent, tag, xmlEscape(FormatVal(pr.Val)), tag)
		}
		if len(n.Children) > 0 {
			b.WriteString(indent + " <Plans>\n")
			for _, c := range n.Children {
				walk(c, indent+"  ")
			}
			b.WriteString(indent + " </Plans>\n")
		}
		b.WriteString(indent + "</Plan>\n")
	}
	if p.Root != nil {
		walk(p.Root, "  ")
	}
	for _, pr := range p.PlanProps {
		tag := strings.ReplaceAll(strings.Title(pr.Key), " ", "-")
		fmt.Fprintf(&b, "  <%s>%s</%s>\n", tag, xmlEscape(FormatVal(pr.Val)), tag)
	}
	b.WriteString(" </Query>\n</explain>\n")
	return b.String()
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// PostgresYAML renders the plan in PostgreSQL's YAML format.
func PostgresYAML(p *Plan) string {
	var b strings.Builder
	b.WriteString("- Plan:\n")
	if p.Root != nil {
		b.WriteString("    ")
		pgYAMLNode(&b, p.Root, "    ")
	}
	for _, pr := range p.PlanProps {
		fmt.Fprintf(&b, "  %s: %s\n", pr.Key, FormatVal(pr.Val))
	}
	return b.String()
}

// pgYAMLNode writes n as a YAML mapping whose first key continues the
// current line (after the indent or a list dash) and whose other keys sit
// at indent.
func pgYAMLNode(b *strings.Builder, n *Node, indent string) {
	fmt.Fprintf(b, "Node Type: %q\n", n.Name)
	if n.Object != "" {
		fmt.Fprintf(b, "%sRelation Name: %q\n", indent, n.Object)
	}
	for _, pr := range n.Props {
		if s, ok := pr.Val.(string); ok {
			fmt.Fprintf(b, "%s%s: %q\n", indent, pgKey(pr.Key), s)
		} else {
			fmt.Fprintf(b, "%s%s: %s\n", indent, pgKey(pr.Key), FormatVal(pr.Val))
		}
	}
	if len(n.Children) > 0 {
		fmt.Fprintf(b, "%sPlans:\n", indent)
		for _, c := range n.Children {
			fmt.Fprintf(b, "%s- ", indent)
			pgYAMLNode(b, c, indent+"  ")
		}
	}
}
