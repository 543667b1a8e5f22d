// Package core implements the unified query plan representation proposed in
// "Towards a Unified Query Plan Representation" (Ba & Rigger, ICDE 2025).
//
// A query plan is a tree of operations. Each operation belongs to one of
// seven categories grounded in relational algebra (Section III-C of the
// paper), and carries zero or more properties from four categories
// (Section III-D). A plan as a whole may also carry plan-associated
// properties, which is how operation-less representations such as
// InfluxDB's are expressed.
//
// The representation is serializable to the EBNF text format of the paper's
// Listing 2 (see text.go) and to JSON (see json.go), and is designed to be
// complete (all information of a plan), general (all nine studied DBMSs),
// and extensible (unknown operations, properties, and categories survive a
// round trip; see compat.go and registry.go).
package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// OperationCategory classifies an operation by its relational-algebra role.
// The seven categories are those identified by the paper's case study.
type OperationCategory string

// The operation categories of the unified query plan representation.
const (
	// Producer operations retrieve data from storage or return constants;
	// they realize selection (σ) and are typically leaf nodes.
	Producer OperationCategory = "Producer"
	// Combinator operations change the permutation or combination of tuples
	// without changing attributes (sort, union, …); they realize ∪, ∩, −.
	Combinator OperationCategory = "Combinator"
	// Join operations generate new tuples by recombining attributes; they
	// realize ⨝ and ×.
	Join OperationCategory = "Join"
	// Folder operations derive new tuples from sets of tuples (grouping,
	// aggregation); they realize γ.
	Folder OperationCategory = "Folder"
	// Projector operations remove attributes from all tuples; they realize Π.
	Projector OperationCategory = "Projector"
	// Executor operations change neither tuples nor attributes; they are
	// DBMS-specific internal steps (gather, exchange, materialize, …).
	Executor OperationCategory = "Executor"
	// Consumer operations have no output; they correspond to non-query
	// statements such as UPDATE or DDL.
	Consumer OperationCategory = "Consumer"
)

// OperationCategories lists all operation categories in the canonical order
// used by the paper's tables.
var OperationCategories = []OperationCategory{
	Producer, Combinator, Join, Folder, Projector, Executor, Consumer,
}

// Valid reports whether c is one of the seven operation categories.
func (c OperationCategory) Valid() bool {
	switch c {
	case Producer, Combinator, Join, Folder, Projector, Executor, Consumer:
		return true
	}
	return false
}

// CategoryIndex returns c's position in OperationCategories, or -1 for a
// category outside the canonical seven. It lets hot paths count
// operations in a fixed array (one comparison) instead of a map (a hash
// per operation).
func CategoryIndex(c OperationCategory) int {
	switch c {
	case Producer:
		return 0
	case Combinator:
		return 1
	case Join:
		return 2
	case Folder:
		return 3
	case Projector:
		return 4
	case Executor:
		return 5
	case Consumer:
		return 6
	}
	return -1
}

// PropertyCategory classifies a property of an operation or plan.
type PropertyCategory string

// PropertyCategoryIndex returns c's position in PropertyCategories, or -1
// for a category outside the canonical four. The binary codec uses it to
// encode property categories as a single index instead of a string.
func PropertyCategoryIndex(c PropertyCategory) int {
	switch c {
	case Cardinality:
		return 0
	case Cost:
		return 1
	case Configuration:
		return 2
	case Status:
		return 3
	}
	return -1
}

// The property categories of the unified query plan representation.
const (
	// Cardinality properties are numeric estimates of data sizes
	// (estimated rows, width, …).
	Cardinality PropertyCategory = "Cardinality"
	// Cost properties are numeric estimates of resource consumption.
	Cost PropertyCategory = "Cost"
	// Configuration properties parameterize operations (filter predicates,
	// sort keys, index conditions, …).
	Configuration PropertyCategory = "Configuration"
	// Status properties report runtime status (workers, task placement,
	// actual times, …).
	Status PropertyCategory = "Status"
)

// PropertyCategories lists all property categories in the canonical order
// used by the paper's tables.
var PropertyCategories = []PropertyCategory{
	Cardinality, Cost, Configuration, Status,
}

// Valid reports whether c is one of the four property categories.
func (c PropertyCategory) Valid() bool {
	switch c {
	case Cardinality, Cost, Configuration, Status:
		return true
	}
	return false
}

// ValueKind discriminates the dynamic type of a Value.
type ValueKind uint8

// The kinds of property values permitted by the grammar
// (value ::= string | number | boolean | 'null').
const (
	KindNull ValueKind = iota
	KindString
	KindNumber
	KindBool
)

// Value is a property value: a string, a number, a boolean, or null.
// The zero Value is null.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
	Bool bool
}

// Null returns the null Value.
func Null() Value { return Value{} }

// String constructs a string Value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// Num constructs a numeric Value.
func Num(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Bool constructs a boolean Value.
func BoolVal(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value in the text-format syntax: strings are quoted,
// numbers print without a trailing ".0" when integral, booleans are
// true/false, and null is the literal null.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return strconv.Quote(v.Str)
	case KindNumber:
		return FormatNumber(v.Num)
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	default:
		return "null"
	}
}

// FormatNumber renders f compactly: integral values print without a decimal
// point, others with the shortest representation that round-trips.
func FormatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// appendNumber appends FormatNumber's rendering of f to dst.
func appendNumber(dst []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return v.Str == o.Str
	case KindNumber:
		return v.Num == o.Num
	case KindBool:
		return v.Bool == o.Bool
	}
	return true
}

// Operation identifies a concrete execution step: a category plus a unified
// name (e.g. Producer → "Full Table Scan").
type Operation struct {
	Category OperationCategory
	Name     string
}

// String renders the operation in text-format syntax, e.g.
// "Producer->Full Table Scan".
func (o Operation) String() string {
	return string(o.Category) + "->" + o.Name
}

// Property is a categorized key/value pair attached to an operation or to a
// plan as a whole.
type Property struct {
	Category PropertyCategory
	Name     string
	Value    Value
}

// String renders the property in text-format syntax, e.g.
// "Cardinality->rows: 1050".
func (p Property) String() string {
	return string(p.Category) + "->" + p.Name + ": " + p.Value.String()
}

// Node is one operation in the plan tree together with its
// operation-associated properties and children.
type Node struct {
	Op         Operation
	Properties []Property
	Children   []*Node
}

// Plan is a unified query plan: an optional operation tree plus
// plan-associated properties. A nil Root with non-empty Properties models
// representations such as InfluxDB's that expose only a property list.
type Plan struct {
	// Source names the DBMS dialect the plan was converted from
	// (informational; empty for hand-built plans).
	Source string
	// Root is the root of the operation tree; nil when the representation
	// has no operations.
	Root *Node
	// Properties are the plan-associated properties (e.g. planning time).
	Properties []Property
}

// NewNode constructs a node for the given operation.
func NewNode(cat OperationCategory, name string, props ...Property) *Node {
	return &Node{Op: Operation{Category: cat, Name: name}, Properties: props}
}

// AddChild appends child nodes and returns n for chaining.
func (n *Node) AddChild(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// AddProperty appends a property and returns n for chaining.
func (n *Node) AddProperty(cat PropertyCategory, name string, v Value) *Node {
	n.Properties = append(n.Properties, Property{Category: cat, Name: name, Value: v})
	return n
}

// Property returns the first property with the given name and true, or a
// zero Property and false.
func (n *Node) Property(name string) (Property, bool) {
	for _, p := range n.Properties {
		if p.Name == name {
			return p, true
		}
	}
	return Property{}, false
}

// PropertiesIn returns the node's properties belonging to the category.
func (n *Node) PropertiesIn(cat PropertyCategory) []Property {
	var out []Property
	for _, p := range n.Properties {
		if p.Category == cat {
			out = append(out, p)
		}
	}
	return out
}

// Property returns the first plan-associated property with the given name.
func (p *Plan) Property(name string) (Property, bool) {
	for _, pr := range p.Properties {
		if pr.Name == name {
			return pr, true
		}
	}
	return Property{}, false
}

// AddProperty appends a plan-associated property and returns p for chaining.
func (p *Plan) AddProperty(cat PropertyCategory, name string, v Value) *Plan {
	p.Properties = append(p.Properties, Property{Category: cat, Name: name, Value: v})
	return p
}

// Walk calls fn for every node in pre-order. It is a no-op on plans without
// a tree. Walk never calls fn with a nil node.
func (p *Plan) Walk(fn func(n *Node, depth int)) {
	var walk func(n *Node, d int)
	walk = func(n *Node, d int) {
		if n == nil {
			return
		}
		fn(n, d)
		for _, c := range n.Children {
			walk(c, d+1)
		}
	}
	walk(p.Root, 0)
}

// Nodes returns all nodes in pre-order.
func (p *Plan) Nodes() []*Node {
	var out []*Node
	p.Walk(func(n *Node, _ int) { out = append(out, n) })
	return out
}

// NodeCount returns the number of operations in the plan tree.
func (p *Plan) NodeCount() int {
	c := 0
	p.Walk(func(*Node, int) { c++ })
	return c
}

// Depth returns the height of the plan tree (0 for an empty tree, 1 for a
// single node).
func (p *Plan) Depth() int {
	max := 0
	p.Walk(func(_ *Node, d int) {
		if d+1 > max {
			max = d + 1
		}
	})
	return max
}

// CountByCategory returns, for each operation category, the number of
// operations of that category in the plan. Categories with zero operations
// are present in the map with value 0.
func (p *Plan) CountByCategory() map[OperationCategory]int {
	m := make(map[OperationCategory]int, len(OperationCategories))
	for _, c := range OperationCategories {
		m[c] = 0
	}
	p.Walk(func(n *Node, _ int) { m[n.Op.Category]++ })
	return m
}

// Clone returns a deep copy of the plan in independent heap storage.
//
// The copy is laid out compactly: one backing array holds every node, one
// holds every property list, and one holds every child-pointer list, so a
// clone costs a constant number of allocations however large the tree is.
// Each node's Properties and Children are full (three-index) sub-slices of
// those arrays — appending to one after the clone reallocates instead of
// clobbering a neighbor.
//
// Clone is also the detach operation of the arena memory model: a plan
// built in a PlanArena aliases the arena's slabs, and Clone moves it into
// storage the arena does not own, making the clone safe to use after the
// arena is Reset. Strings (names, values) are immutable and shared with
// the original rather than copied.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	nNodes, nProps, nChildren := 0, len(p.Properties), 0
	p.Walk(func(n *Node, _ int) {
		nNodes++
		nProps += len(n.Properties)
		nChildren += len(n.Children)
	})
	out := &Plan{Source: p.Source}
	// Exact capacities: the appends below never reallocate, so interior
	// pointers into nodes/children stay valid while the tree is filled.
	nodes := make([]Node, 0, nNodes)
	props := make([]Property, 0, nProps)
	children := make([]*Node, 0, nChildren)
	if len(p.Properties) > 0 {
		start := len(props)
		props = append(props, p.Properties...)
		out.Properties = props[start:len(props):len(props)]
	}
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		if n == nil {
			return nil
		}
		nodes = append(nodes, Node{Op: n.Op})
		nn := &nodes[len(nodes)-1]
		if len(n.Properties) > 0 {
			start := len(props)
			props = append(props, n.Properties...)
			nn.Properties = props[start:len(props):len(props)]
		}
		if len(n.Children) > 0 {
			start := len(children)
			children = append(children, n.Children...)
			cs := children[start:len(children):len(children)]
			for i, c := range n.Children {
				cs[i] = cp(c)
			}
			nn.Children = cs
		}
		return nn
	}
	out.Root = cp(p.Root)
	return out
}

// Equal reports structural equality of two plans: same tree shape,
// operations, and properties (order-sensitive), ignoring Source.
func (p *Plan) Equal(o *Plan) bool {
	if p == nil || o == nil {
		return p == o
	}
	if !propsEqual(p.Properties, o.Properties) {
		return false
	}
	var eq func(a, b *Node) bool
	eq = func(a, b *Node) bool {
		if a == nil || b == nil {
			return a == b
		}
		if a.Op != b.Op || !propsEqual(a.Properties, b.Properties) ||
			len(a.Children) != len(b.Children) {
			return false
		}
		for i := range a.Children {
			if !eq(a.Children[i], b.Children[i]) {
				return false
			}
		}
		return true
	}
	return eq(p.Root, o.Root)
}

func propsEqual(a, b []Property) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Category != b[i].Category || a[i].Name != b[i].Name ||
			!a[i].Value.Equal(b[i].Value) {
			return false
		}
	}
	return true
}

// Validate checks the plan against the unified grammar: categories must be
// known (unless opts.AllowUnknownCategories), names must be non-empty,
// numbers must be finite (JSON writes a NaN or an infinity as null, so the
// serializations would disagree), and the tree must be acyclic (guaranteed by construction but checked
// defensively against aliasing).
func (p *Plan) Validate(opts ...ValidateOption) error {
	var cfg validateConfig
	for _, o := range opts {
		o(&cfg)
	}
	for _, pr := range p.Properties {
		if err := validateProperty(pr, cfg); err != nil {
			return fmt.Errorf("plan property: %w", err)
		}
	}
	seen := map[*Node]bool{}
	var check func(n *Node) error
	check = func(n *Node) error {
		if n == nil {
			return nil
		}
		if seen[n] {
			return fmt.Errorf("core: node %q appears more than once in the tree", n.Op)
		}
		seen[n] = true
		if n.Op.Name == "" {
			return fmt.Errorf("core: operation with empty name")
		}
		if !n.Op.Category.Valid() && !cfg.allowUnknownCategories {
			return fmt.Errorf("core: unknown operation category %q", n.Op.Category)
		}
		for _, pr := range n.Properties {
			if err := validateProperty(pr, cfg); err != nil {
				return fmt.Errorf("operation %q: %w", n.Op, err)
			}
		}
		for _, c := range n.Children {
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(p.Root)
}

func validateProperty(pr Property, cfg validateConfig) error {
	if pr.Name == "" {
		return fmt.Errorf("core: property with empty name")
	}
	if !pr.Category.Valid() && !cfg.allowUnknownCategories {
		return fmt.Errorf("core: unknown property category %q", pr.Category)
	}
	if pr.Value.Kind == KindNumber && (math.IsNaN(pr.Value.Num) || math.IsInf(pr.Value.Num, 0)) {
		return fmt.Errorf("core: property %q: non-finite number %v", pr.Name, pr.Value.Num)
	}
	return nil
}

type validateConfig struct {
	allowUnknownCategories bool
}

// ValidateOption configures Validate.
type ValidateOption func(*validateConfig)

// AllowUnknownCategories makes Validate accept categories outside the seven
// operation and four property categories. This implements the forward
// compatibility contract of Section IV-B: plans produced by a newer grammar
// with additional categories still validate.
func AllowUnknownCategories() ValidateOption {
	return func(c *validateConfig) { c.allowUnknownCategories = true }
}

// CanonicalName converts a unified name with spaces ("Full Table Scan") to
// the strict keyword form of the grammar ("Full_Table_Scan"): letters,
// digits and underscores only, starting with a letter. Names already in
// canonical form are returned unmodified without allocating, which makes
// serializing plans built from registry-interned names allocation-free.
func CanonicalName(name string) string {
	if isCanonicalName(name) {
		return name
	}
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('n') // keywords must start with a letter
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// isCanonicalName reports whether CanonicalName would return name
// unchanged: ASCII letters, digits, and underscores only, not starting
// with a digit. A multi-byte rune always needs rewriting (it collapses to
// one underscore), so the byte scan is exact.
func isCanonicalName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// DisplayName reverses CanonicalName's underscore substitution for
// presentation ("Full_Table_Scan" → "Full Table Scan"). Names without
// underscores are returned unmodified without allocating (ReplaceAll
// passes the input through when nothing matches; guarded by
// TestCanonicalNameZeroAllocs).
func DisplayName(name string) string {
	return strings.ReplaceAll(name, "_", " ")
}

// propCategoryRank orders the four property categories canonically; built
// once so SortProperties does not rebuild it per call.
var propCategoryRank = func() map[PropertyCategory]int {
	rank := make(map[PropertyCategory]int, len(PropertyCategories))
	for i, c := range PropertyCategories {
		rank[c] = i
	}
	return rank
}()

// SortProperties orders properties by category (canonical order) then name;
// used by canonical serializations and fingerprints. Unknown categories
// sort after the four canonical ones.
func SortProperties(props []Property) {
	sort.SliceStable(props, func(i, j int) bool {
		ri, iok := propCategoryRank[props[i].Category]
		rj, jok := propCategoryRank[props[j].Category]
		if !iok {
			ri = len(propCategoryRank)
		}
		if !jok {
			rj = len(propCategoryRank)
		}
		if ri != rj {
			return ri < rj
		}
		return props[i].Name < props[j].Name
	})
}
