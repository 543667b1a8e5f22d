package explain

import (
	"fmt"
	"strings"
)

// TiDB serializations: the tabular EXPLAIN output (id/estRows/task/access
// object/operator info columns with └─ tree art) and the JSON rendering.

// TiDBTable renders TiDB's default tabular format.
func TiDBTable(p *Plan) string {
	var rows [][]string
	rows = append(rows, []string{"id", "estRows", "task", "access object", "operator info"})
	var walk func(n *Node, prefix string, last bool, root bool)
	walk = func(n *Node, prefix string, last bool, root bool) {
		id := n.Name
		if !root {
			connector := "├─"
			if last {
				connector = "└─"
			}
			id = prefix + connector + n.Name
		}
		est := ""
		if r, ok := n.Prop("rows"); ok {
			est = fmt.Sprintf("%.2f", toF(r))
		}
		task := n.Task
		if task == "" {
			task = "root"
		}
		obj := ""
		if n.Object != "" {
			obj = "table:" + n.Object
		}
		if ix, ok := n.Prop("index"); ok {
			if obj != "" {
				obj += ", "
			}
			obj += "index:" + FormatVal(ix)
		}
		info, _ := n.Prop("operator info")
		rows = append(rows, []string{id, est, task, obj, FormatVal(info)})
		childPrefix := prefix
		if !root {
			if last {
				childPrefix += "  "
			} else {
				childPrefix += "│ "
			}
		}
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1, false)
		}
	}
	if p.Root != nil {
		walk(p.Root, "", true, true)
	}
	return renderASCIITable(rows)
}

func toF(v any) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case int:
		return float64(t)
	case int64:
		return float64(t)
	}
	return 0
}

type tidbJSONNode struct {
	ID           string         `json:"id"`
	EstRows      string         `json:"estRows"`
	ActRows      string         `json:"actRows,omitempty"`
	TaskType     string         `json:"taskType"`
	AccessObject string         `json:"accessObject,omitempty"`
	OperatorInfo string         `json:"operatorInfo,omitempty"`
	SubOperators []tidbJSONNode `json:"subOperators,omitempty"`
}

func tidbJSON(n *Node) tidbJSONNode {
	est := ""
	if r, ok := n.Prop("rows"); ok {
		est = fmt.Sprintf("%.2f", toF(r))
	}
	task := n.Task
	if task == "" {
		task = "root"
	}
	obj := ""
	if n.Object != "" {
		obj = "table:" + n.Object
	}
	if ix, ok := n.Prop("index"); ok {
		if obj != "" {
			obj += ", "
		}
		obj += "index:" + FormatVal(ix)
	}
	info, _ := n.Prop("operator info")
	out := tidbJSONNode{
		ID: n.Name, EstRows: est, TaskType: task,
		AccessObject: obj, OperatorInfo: FormatVal(info),
	}
	if ar, ok := n.Prop("actual_rows"); ok {
		out.ActRows = FormatVal(ar)
	}
	for _, c := range n.Children {
		out.SubOperators = append(out.SubOperators, tidbJSON(c))
	}
	return out
}

// TiDBJSON renders TiDB's EXPLAIN FORMAT="tidb_json" output: an array with
// the operator tree.
func TiDBJSON(p *Plan) (string, error) {
	var arr []tidbJSONNode
	if p.Root != nil {
		arr = append(arr, tidbJSON(p.Root))
	}
	out, err := marshalJSON(arr)
	if err != nil {
		return "", fmt.Errorf("explain: tidb json: %w", err)
	}
	return out, nil
}

// SQLiteText renders SQLite's EXPLAIN QUERY PLAN output (paper Listing 1):
// a QUERY PLAN header followed by |-- / `-- tree art.
func SQLiteText(p *Plan) string {
	var b strings.Builder
	b.WriteString("QUERY PLAN\n")
	var walk func(n *Node, prefix string, last bool)
	walk = func(n *Node, prefix string, last bool) {
		connector := "|--"
		if last {
			connector = "`--"
		}
		line := n.Name
		if n.Object != "" {
			line += " " + n.Object
		}
		if detail, ok := n.Prop("detail"); ok {
			line += " " + FormatVal(detail)
		}
		fmt.Fprintf(&b, "%s%s%s\n", prefix, connector, line)
		childPrefix := prefix + "|  "
		if last {
			childPrefix = prefix + "   "
		}
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1)
		}
	}
	if p.Root != nil {
		if p.Root.Name == "QUERY PLAN" {
			for i, c := range p.Root.Children {
				walk(c, "", i == len(p.Root.Children)-1)
			}
		} else {
			walk(p.Root, "", true)
		}
	}
	return b.String()
}

// InfluxText renders InfluxDB's EXPLAIN output: a list of plan-level
// properties, no operators.
func InfluxText(p *Plan) string {
	var b strings.Builder
	for _, pr := range p.PlanProps {
		fmt.Fprintf(&b, "%s: %s\n", strings.ToUpper(pr.Key), FormatVal(pr.Val))
	}
	return b.String()
}
