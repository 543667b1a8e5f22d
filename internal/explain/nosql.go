package explain

import (
	"fmt"
	"strings"
)

// MongoDB, Neo4j, SparkSQL, and SQL Server serializations.

func mongoStage(n *Node) map[string]any {
	m := map[string]any{"stage": n.Name}
	if n.Object != "" {
		m["namespace"] = "test." + n.Object
	}
	for _, pr := range n.Props {
		switch pr.Key {
		case "rows", "width", "startup_cost", "total_cost":
			// Mongo exposes no estimates in winningPlan.
		case "actual_rows":
			m["nReturned"] = pr.Val
		default:
			m[pr.Key] = pr.Val
		}
	}
	switch len(n.Children) {
	case 0:
	case 1:
		m["inputStage"] = mongoStage(n.Children[0])
	default:
		var kids []any
		for _, c := range n.Children {
			kids = append(kids, mongoStage(c))
		}
		m["inputStages"] = kids
	}
	return m
}

// MongoJSON renders MongoDB's explain() document with the winning plan.
func MongoJSON(p *Plan) (string, error) {
	out, err := marshalJSON(mongoJSONDoc(p))
	if err != nil {
		return "", fmt.Errorf("explain: mongo json: %w", err)
	}
	return out, nil
}

func mongoJSONDoc(p *Plan) any {
	qp := map[string]any{
		"plannerVersion": 1,
		"rejectedPlans":  []any{},
	}
	if p.Root != nil {
		qp["winningPlan"] = mongoStage(p.Root)
		if p.Root.Object != "" {
			qp["namespace"] = "test." + p.Root.Object
		}
	}
	doc := map[string]any{"queryPlanner": qp, "ok": 1}
	for _, pr := range p.PlanProps {
		doc[pr.Key] = pr.Val
	}
	return doc
}

// Neo4jTable renders Neo4j's plan table (paper Figure 1): planner/runtime
// header, an Operator/Details/Estimated Rows table (with PROFILE's Rows
// column when the plan carries actuals), and the database accesses
// footer.
func Neo4jTable(p *Plan) string {
	var b strings.Builder
	planner := "COST"
	runtime := "5.10"
	var accesses, memory any = 0, 0
	for _, pr := range p.PlanProps {
		switch pr.Key {
		case "planner":
			planner = FormatVal(pr.Val)
		case "runtime version":
			runtime = FormatVal(pr.Val)
		case "database accesses":
			accesses = pr.Val
		case "memory":
			memory = pr.Val
		}
	}
	fmt.Fprintf(&b, "Planner %s\nRuntime version %s\n", planner, runtime)
	header := []string{"Operator", "Details", "Estimated Rows"}
	profiled := false
	p.Walk(func(n *Node, _ int) {
		_, ok := n.Prop("actual_rows")
		profiled = profiled || ok
	})
	if profiled {
		header = append(header, "Rows")
	}
	rows := [][]string{header}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		detail, _ := n.Prop("Details")
		if n.Object != "" {
			d := FormatVal(detail)
			if d != "" {
				d += "; "
			}
			detail = d + n.Object
		}
		est := ""
		if r, ok := n.Prop("rows"); ok {
			est = FormatVal(r)
		}
		row := []string{strings.Repeat("| ", depth) + "+" + n.Name, FormatVal(detail), est}
		if profiled {
			actual, _ := n.Prop("actual_rows")
			row = append(row, FormatVal(actual))
		}
		rows = append(rows, row)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	b.WriteString(renderASCIITable(rows))
	fmt.Fprintf(&b, "Total database accesses: %s, total allocated memory: %s\n",
		FormatVal(accesses), FormatVal(memory))
	return b.String()
}

func neo4jNode(n *Node) map[string]any {
	args := map[string]any{}
	for _, pr := range n.Props {
		switch pr.Key {
		case "rows":
			args["EstimatedRows"] = pr.Val
		case "actual_rows":
			args["Rows"] = pr.Val
		default:
			args[pr.Key] = pr.Val
		}
	}
	if n.Object != "" {
		args["Details"] = n.Object
	}
	m := map[string]any{"operatorType": n.Name, "arguments": args}
	if len(n.Children) > 0 {
		var kids []any
		for _, c := range n.Children {
			kids = append(kids, neo4jNode(c))
		}
		m["children"] = kids
	}
	return m
}

// Neo4jJSON renders the plan as the JSON structure Neo4j drivers expose.
func Neo4jJSON(p *Plan) (string, error) {
	out, err := marshalJSON(neo4jJSONDoc(p))
	if err != nil {
		return "", fmt.Errorf("explain: neo4j json: %w", err)
	}
	return out, nil
}

func neo4jJSONDoc(p *Plan) any {
	doc := map[string]any{}
	if p.Root != nil {
		doc["plan"] = neo4jNode(p.Root)
	}
	for _, pr := range p.PlanProps {
		doc[pr.Key] = pr.Val
	}
	return doc
}

// SparkText renders SparkSQL's "== Physical Plan ==" text format.
func SparkText(p *Plan) string {
	var b strings.Builder
	b.WriteString("== Physical Plan ==\n")
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if depth == 0 {
			b.WriteString(sparkTitle(n))
		} else {
			b.WriteString(strings.Repeat("   ", depth-1))
			b.WriteString("+- ")
			b.WriteString(sparkTitle(n))
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

func sparkTitle(n *Node) string {
	title := n.Name
	if args, ok := n.Prop("args"); ok {
		title += FormatVal(args)
	}
	if n.Object != "" {
		title += " " + n.Object
	}
	return title
}

// SQLServerXML renders a SQL Server showplan XML document.
func SQLServerXML(p *Plan) string {
	var b strings.Builder
	b.WriteString(`<ShowPlanXML xmlns="http://schemas.microsoft.com/sqlserver/2004/07/showplan" Version="1.564">` + "\n")
	b.WriteString(" <BatchSequence><Batch><Statements><StmtSimple>\n  <QueryPlan>\n")
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		rows, _ := n.Prop("rows")
		cost, _ := n.Prop("total_cost")
		fmt.Fprintf(&b, "%s<RelOp PhysicalOp=%q LogicalOp=%q EstimateRows=%q EstimatedTotalSubtreeCost=%q>\n",
			indent, n.Name, logicalOpFor(n.Name), FormatVal(rows), FormatVal(cost))
		if n.Object != "" {
			fmt.Fprintf(&b, "%s <Object Table=\"[%s]\"/>\n", indent, n.Object)
		}
		for _, pr := range n.Props {
			switch pr.Key {
			case "rows", "total_cost", "startup_cost", "width":
				continue
			}
			fmt.Fprintf(&b, "%s <%s>%s</%s>\n", indent,
				sqlServerTag(pr.Key), xmlEscape(FormatVal(pr.Val)), sqlServerTag(pr.Key))
		}
		for _, c := range n.Children {
			walk(c, indent+" ")
		}
		fmt.Fprintf(&b, "%s</RelOp>\n", indent)
	}
	if p.Root != nil {
		walk(p.Root, "   ")
	}
	b.WriteString("  </QueryPlan>\n </StmtSimple></Statements></Batch></BatchSequence>\n</ShowPlanXML>\n")
	return b.String()
}

// SQLServerText renders SHOWPLAN_TEXT-style output: a StmtText tree with
// |-- art.
func SQLServerText(p *Plan) string {
	var b strings.Builder
	b.WriteString("StmtText\n---------\n")
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if depth > 0 {
			b.WriteString(strings.Repeat("     ", depth-1))
			b.WriteString("  |--")
		}
		title := n.Name
		if n.Object != "" {
			title += "(OBJECT:([" + n.Object + "]))"
		}
		if pred, ok := n.Prop("Predicate"); ok {
			title += " WHERE:(" + FormatVal(pred) + ")"
		}
		b.WriteString(title)
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

// SQLServerTable renders SET STATISTICS PROFILE-style tabular output.
func SQLServerTable(p *Plan) string {
	rows := [][]string{{"Rows", "Executes", "StmtText", "EstimateRows", "TotalSubtreeCost"}}
	p.Walk(func(n *Node, depth int) {
		est, _ := n.Prop("rows")
		cost, _ := n.Prop("total_cost")
		actual := ""
		if ar, ok := n.Prop("actual_rows"); ok {
			actual = FormatVal(ar)
		}
		title := strings.Repeat("  ", depth) + "|--" + n.Name
		if n.Object != "" {
			title += "([" + n.Object + "])"
		}
		rows = append(rows, []string{actual, "1", title, FormatVal(est), FormatVal(cost)})
	})
	return renderASCIITable(rows)
}

func sqlServerTag(key string) string {
	parts := strings.Fields(strings.ReplaceAll(key, "_", " "))
	for i, p := range parts {
		parts[i] = strings.Title(p)
	}
	return strings.Join(parts, "")
}

func logicalOpFor(physical string) string {
	switch physical {
	case "Hash Match":
		return "Inner Join"
	case "Nested Loops":
		return "Inner Join"
	case "Merge Join":
		return "Inner Join"
	case "Stream Aggregate", "Hash Match Aggregate":
		return "Aggregate"
	case "Table Scan", "Clustered Index Scan", "Index Seek", "Clustered Index Seek":
		return "Scan"
	}
	return physical
}
