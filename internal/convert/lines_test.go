package convert

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"uplan/internal/core"
)

// TestTreeBuilderRootPolicy pins the two root policies: a strict builder
// rejects a second top-level node and a blank operator name; an adopting
// one puts every later top-level node, with its subtree, under the root in
// document order.
func TestTreeBuilderRootPolicy(t *testing.T) {
	n := func(name string) *core.Node {
		return &core.Node{Op: core.Operation{Category: core.Producer, Name: name}}
	}
	var strict treeBuilder
	if err := strict.add(nil, n(""), 0); !errors.Is(err, errBlankOperator) {
		t.Errorf("blank operator: err = %v", err)
	}
	for _, step := range []struct {
		name string
		key  int
		want error
	}{{"a", 0, nil}, {"b", 2, nil}, {"c", 1, nil}, {"d", 0, errMultipleRoots}} {
		if err := strict.add(nil, n(step.name), step.key); !errors.Is(err, step.want) {
			t.Errorf("strict %s: err = %v, want %v", step.name, err, step.want)
		}
	}
	if got := shape(strict.root); got != "a(b c)" {
		t.Errorf("strict tree %s, want a(b c)", got)
	}

	adopt := treeBuilder{adopt: true}
	for _, step := range []struct {
		name string
		key  int
	}{{"a", 1}, {"b", 2}, {"c", 0}, {"d", 1}, {"e", 1}, {"f", 0}} {
		if err := adopt.add(nil, n(step.name), step.key); err != nil {
			t.Fatalf("adopt %s: %v", step.name, err)
		}
	}
	if got := shape(adopt.root); got != "a(b c(d e) f)" {
		t.Errorf("adopted tree %s, want a(b c(d e) f)", got)
	}
}

// shape renders a tree as name(children…).
func shape(n *core.Node) string {
	s := n.Op.Name
	for i, c := range n.Children {
		if i == 0 {
			s += "("
		} else {
			s += " "
		}
		s += shape(c)
	}
	if len(n.Children) > 0 {
		s += ")"
	}
	return s
}

// TestTreeBuilderDeepPath walks a chain past the builder's inline path,
// twice over, then branches back to a shallow level: the spilled levels
// must keep their nodes and keys.
func TestTreeBuilderDeepPath(t *testing.T) {
	var b treeBuilder
	var chain []*core.Node
	for i := 0; i < 3*len(b.path)+5; i++ {
		node := &core.Node{Op: core.Operation{Category: core.Producer, Name: "n"}}
		if err := b.add(nil, node, 2*i); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, node)
	}
	for _, at := range []int{40, 20, 3} {
		leaf := &core.Node{Op: core.Operation{Category: core.Producer, Name: "leaf"}}
		if err := b.add(nil, leaf, 2*at+1); err != nil {
			t.Fatal(err)
		}
		if kids := chain[at].Children; kids[len(kids)-1] != leaf {
			t.Errorf("leaf with key %d is not the last child of chain node %d", 2*at+1, at)
		}
		if b.last() != leaf {
			t.Errorf("last() is not the leaf just added")
		}
	}
}

// TestAlignedTableAllocLinear feeds each table converter n one-character
// rows under an n-wide border (or, for MySQL, header). A parser that gives
// every row one cell per column allocates n² cells, 250 MB at n = 4,000;
// rows that keep only the cells their line reaches stay linear.
func TestAlignedTableAllocLinear(t *testing.T) {
	const n = 4000
	aligned := quadraticTable(n)
	for _, tc := range []struct{ dialect, input string }{
		{"tidb", aligned},
		{"neo4j", aligned},
		{"sqlserver", aligned},
		// Tree-art rows are cut by rune, which must stay linear too.
		{"tidb", strings.Repeat("+", n) + "\n" + strings.Repeat("|│\n", n)},
		{"mysql", "+--\n" + strings.Repeat("|", n) + "\n" + strings.Repeat("|\n", n)},
	} {
		c, err := Cached(tc.dialect)
		if err != nil {
			t.Fatal(err)
		}
		c.Convert(tc.input) // warm the pooled arena
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Convert(tc.input)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Errorf("%s: converting %d bytes allocated %d bytes, want at most 4 MiB", tc.dialect, len(tc.input), alloc)
		}
	}
}

// quadraticTable is a border of n '+' followed by n one-character '|'
// lines: n column spans over n rows.
func quadraticTable(n int) string {
	return strings.Repeat("+", n) + "\n" + strings.Repeat("|\n", n)
}

// tidbNestedTable is TiDB's tabular EXPLAIN of a join: the tree art
// (├─, │, └─) takes three bytes per display column, and the renderer pads
// every cell to a count of runes.
const tidbNestedTable = `+-------------------------------+---------+-----------+----------------+-------------------------------+
| id                            | estRows | task      | access object  | operator info                 |
+-------------------------------+---------+-----------+----------------+-------------------------------+
| HashJoin_5                    | 95.63   | root      |                | inner join                    |
| ├─TableReader_8               | 6.00    | root      |                | data:Selection_7              |
| │ └─Selection_7               | 6.00    | cop[tikv] |                | (c_mktsegment = 'BUILDING')   |
| │   └─TableFullScan_6         | 6.00    | cop[tikv] | table:customer | keep order:false              |
| └─TableReader_11              | 31.88   | root      |                | data:TableFullScan_10         |
|   └─TableFullScan_10          | 31.88   | cop[tikv] | table:orders   | keep order:false              |
+-------------------------------+---------+-----------+----------------+-------------------------------+
`

// TestTiDBTableNestedRows: every nested row of a TiDB table reads its
// own cells, so the estimates are numbers and the task and access object
// are the row's, not bytes of the neighbouring columns.
func TestTiDBTableNestedRows(t *testing.T) {
	p, err := Convert("tidb", tidbNestedTable)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		op     string
		est    float64
		task   string
		object string
	}
	var got []row
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		r := row{op: n.Op.Name, est: -1}
		if pr, ok := n.Property("estimated rows"); ok {
			if pr.Value.Kind != core.KindNumber {
				t.Errorf("%s: estimated rows %v is not a number", n.Op.Name, pr.Value)
			}
			r.est = pr.Value.Num
		}
		if pr, ok := n.Property("task type"); ok {
			r.task = pr.Value.Str
		}
		if pr, ok := n.Property("access object"); ok {
			r.object = pr.Value.Str
		}
		got = append(got, r)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	// The Selection folds into its scan as a filter.
	want := []row{
		{"Hash Join", 95.63, "root", ""},
		{"Collect", 6, "root", ""},
		{"Full Table Scan", 6, "cop[tikv]", "table:customer"},
		{"Collect", 31.88, "root", ""},
		{"Full Table Scan", 31.88, "cop[tikv]", "table:orders"},
	}
	if len(got) != len(want) {
		t.Fatalf("converted %d nodes %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	folded := false
	for _, pr := range p.Root.Children[0].Children[0].Properties {
		folded = folded || pr.Name == "filter" && strings.Contains(pr.Value.Str, "BUILDING")
	}
	if !folded {
		t.Error("the customer scan lacks the folded Selection's BUILDING filter")
	}
}
