package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Cross-DBMS plan comparison (application A.3 of the paper). The primitives
// here power Table VI/VII (operation-category histograms), Figure 4
// (variance of Producer counts across DBMSs), and the Section VI suggestion
// of tree-similarity metrics.

// CategoryHistogram is an operation count per category for one plan or an
// average over many plans.
type CategoryHistogram map[OperationCategory]float64

// Histogram returns the plan's operation counts per category as floats
// (keys exist for all seven categories).
func (p *Plan) Histogram() CategoryHistogram {
	h := CategoryHistogram{}
	for _, c := range OperationCategories {
		h[c] = 0
	}
	p.Walk(func(n *Node, _ int) { h[n.Op.Category]++ })
	return h
}

// Sum returns the total operation count in the histogram.
func (h CategoryHistogram) Sum() float64 {
	var s float64
	for _, v := range h {
		s += v
	}
	return s
}

// AverageHistogram averages histograms of multiple plans (Table VI rows).
func AverageHistogram(plans []*Plan) CategoryHistogram {
	avg := CategoryHistogram{}
	for _, c := range OperationCategories {
		avg[c] = 0
	}
	if len(plans) == 0 {
		return avg
	}
	for _, p := range plans {
		for c, v := range p.Histogram() {
			avg[c] += v
		}
	}
	for c := range avg {
		avg[c] /= float64(len(plans))
	}
	return avg
}

// Variance computes the population variance of a series, used by Figure 4
// to find queries with large cross-DBMS differences in Producer counts.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return v / float64(len(xs))
}

// CountOperations returns how many operations in the plan are in the given
// category (convenience for Figure 4).
func (p *Plan) CountOperations(cat OperationCategory) int {
	c := 0
	p.Walk(func(n *Node, _ int) {
		if n.Op.Category == cat {
			c++
		}
	})
	return c
}

// OperationNames returns the multiset of operation names in pre-order.
func (p *Plan) OperationNames() []string {
	var out []string
	p.Walk(func(n *Node, _ int) { out = append(out, n.Op.Name) })
	return out
}

// Diff describes one difference between two plans.
type Diff struct {
	Path string // slash-separated child indexes from the root, "" = root
	Kind string // "operation", "property", "children", "presence"
	A, B string // rendered values on each side
}

func (d Diff) String() string {
	path := d.Path
	if path == "" {
		path = "/"
	}
	return fmt.Sprintf("%s %s: %q vs %q", path, d.Kind, d.A, d.B)
}

// Compare returns the structural differences between two plans. Property
// comparison considers Configuration properties only — Cardinality, Cost,
// and Status are expected to differ across engines and runs.
func Compare(a, b *Plan) []Diff {
	var diffs []Diff
	var cmp func(x, y *Node, path string)
	cmp = func(x, y *Node, path string) {
		switch {
		case x == nil && y == nil:
			return
		case x == nil || y == nil:
			diffs = append(diffs, Diff{Path: path, Kind: "presence",
				A: nodeDesc(x), B: nodeDesc(y)})
			return
		}
		if x.Op != y.Op {
			diffs = append(diffs, Diff{Path: path, Kind: "operation",
				A: x.Op.String(), B: y.Op.String()})
		}
		xc := configNames(x.Properties)
		yc := configNames(y.Properties)
		if !strSliceEqual(xc, yc) {
			diffs = append(diffs, Diff{Path: path, Kind: "property",
				A: strings.Join(xc, ","), B: strings.Join(yc, ",")})
		}
		n := len(x.Children)
		if len(y.Children) > n {
			n = len(y.Children)
		}
		if len(x.Children) != len(y.Children) {
			diffs = append(diffs, Diff{Path: path, Kind: "children",
				A: fmt.Sprint(len(x.Children)), B: fmt.Sprint(len(y.Children))})
		}
		for i := 0; i < n; i++ {
			var xi, yi *Node
			if i < len(x.Children) {
				xi = x.Children[i]
			}
			if i < len(y.Children) {
				yi = y.Children[i]
			}
			cmp(xi, yi, fmt.Sprintf("%s/%d", path, i))
		}
	}
	cmp(a.Root, b.Root, "")
	return diffs
}

func nodeDesc(n *Node) string {
	if n == nil {
		return "<absent>"
	}
	return n.Op.String()
}

func configNames(props []Property) []string {
	var out []string
	for _, p := range props {
		if p.Category == Configuration {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}

func strSliceEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TreeEditDistance computes a simple ordered-tree edit distance between two
// plans, where node substitution cost is 0 for identical operations and 1
// otherwise, and insertion/deletion cost 1 per node. This is the
// tree-similarity metric Section VI suggests for comparing optimizers.
func TreeEditDistance(a, b *Plan) int {
	return editDist(a.Root, b.Root)
}

func editDist(a, b *Node) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return subtreeSize(b)
	case b == nil:
		return subtreeSize(a)
	}
	sub := 0
	if a.Op != b.Op {
		sub = 1
	}
	// Align children with a small dynamic program over the two child lists.
	na, nb := len(a.Children), len(b.Children)
	dp := make([][]int, na+1)
	for i := range dp {
		dp[i] = make([]int, nb+1)
	}
	for i := 1; i <= na; i++ {
		dp[i][0] = dp[i-1][0] + subtreeSize(a.Children[i-1])
	}
	for j := 1; j <= nb; j++ {
		dp[0][j] = dp[0][j-1] + subtreeSize(b.Children[j-1])
	}
	for i := 1; i <= na; i++ {
		for j := 1; j <= nb; j++ {
			del := dp[i-1][j] + subtreeSize(a.Children[i-1])
			ins := dp[i][j-1] + subtreeSize(b.Children[j-1])
			rep := dp[i-1][j-1] + editDist(a.Children[i-1], b.Children[j-1])
			dp[i][j] = minInt(del, minInt(ins, rep))
		}
	}
	best := sub + dp[na][nb]
	// Root insertion/deletion moves: delete the root of one tree and match
	// the other tree against one of its children (paying for the remaining
	// siblings). This lets "wrap a plan in an extra operator" cost 1.
	for _, c := range a.Children {
		cand := 1 + editDist(c, b) + subtreeSize(a) - 1 - subtreeSize(c)
		best = minInt(best, cand)
	}
	for _, c := range b.Children {
		cand := 1 + editDist(a, c) + subtreeSize(b) - 1 - subtreeSize(c)
		best = minInt(best, cand)
	}
	return best
}

func subtreeSize(n *Node) int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += subtreeSize(c)
	}
	return s
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Similarity returns a normalized [0,1] similarity between two plans based
// on TreeEditDistance: 1 means identical operation trees.
func Similarity(a, b *Plan) float64 {
	_, sim := EditSimilarity(a, b)
	return sim
}

// EditSimilarity returns TreeEditDistance and Similarity together,
// computing the exponential-cost edit distance only once.
func EditSimilarity(a, b *Plan) (distance int, similarity float64) {
	distance = TreeEditDistance(a, b)
	sa, sb := subtreeSize(a.Root), subtreeSize(b.Root)
	if sa+sb == 0 {
		return distance, 1
	}
	return distance, math.Max(0, 1-float64(distance)/float64(sa+sb))
}

// RootCardinality returns the estimated-rows property of the root
// operation, or of the plan itself when no tree exists. It is CERT's input:
// the optimizer's final cardinality estimate. The boolean reports whether
// an estimate was found.
func (p *Plan) RootCardinality() (float64, bool) {
	read := func(props []Property) (float64, bool) {
		for _, pr := range props {
			if pr.Category == Cardinality && pr.Value.Kind == KindNumber &&
				strings.Contains(strings.ToLower(pr.Name), "rows") {
				return pr.Value.Num, true
			}
		}
		return 0, false
	}
	if p.Root != nil {
		// Skip over pure transport operators (Executor category) whose
		// cardinality merely mirrors their child, preferring the topmost
		// estimate that exists.
		n := p.Root
		for n != nil {
			if v, ok := read(n.Properties); ok {
				return v, true
			}
			if len(n.Children) == 1 {
				n = n.Children[0]
				continue
			}
			break
		}
	}
	return read(p.Properties)
}
