package core

import (
	"math"
	"testing"
	"testing/quick"
)

func samplePlan() *Plan {
	scan := NewNode(Producer, "Full Table Scan").
		AddProperty(Configuration, "name object", Str("t0")).
		AddProperty(Cardinality, "estimated rows", Num(1000)).
		AddProperty(Cost, "total cost", Num(35.5)).
		AddProperty(Configuration, "filter", Str("c0 < 100"))
	sort := NewNode(Combinator, "Sort").
		AddProperty(Configuration, "sort key", Str("c0"))
	sort.AddChild(scan)
	agg := NewNode(Folder, "Hash Aggregate").
		AddProperty(Configuration, "group key", Str("c0")).
		AddProperty(Cardinality, "estimated rows", Num(200))
	agg.AddChild(sort)
	p := &Plan{Source: "postgresql", Root: agg}
	p.AddProperty(Status, "planning time", Num(0.124))
	return p
}

func TestCategoryValidity(t *testing.T) {
	for _, c := range OperationCategories {
		if !c.Valid() {
			t.Errorf("category %q should be valid", c)
		}
	}
	if OperationCategory("Nonsense").Valid() {
		t.Error("Nonsense should not be a valid operation category")
	}
	for _, c := range PropertyCategories {
		if !c.Valid() {
			t.Errorf("property category %q should be valid", c)
		}
	}
	if PropertyCategory("Weird").Valid() {
		t.Error("Weird should not be a valid property category")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Str("abc"), `"abc"`},
		{Str(`quote"inside`), `"quote\"inside"`},
		{Num(42), "42"},
		{Num(-3), "-3"},
		{Num(0.124), "0.124"},
		{BoolVal(true), "true"},
		{BoolVal(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("Value %#v String = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Num(1).Equal(Num(1)) || Num(1).Equal(Num(2)) {
		t.Error("numeric equality broken")
	}
	if Str("1").Equal(Num(1)) {
		t.Error("cross-kind values must differ")
	}
	if !Null().Equal(Null()) {
		t.Error("null must equal null")
	}
}

func TestWalkAndCounts(t *testing.T) {
	p := samplePlan()
	if got := p.NodeCount(); got != 3 {
		t.Fatalf("NodeCount = %d, want 3", got)
	}
	if got := p.Depth(); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
	counts := p.CountByCategory()
	if counts[Producer] != 1 || counts[Combinator] != 1 || counts[Folder] != 1 {
		t.Errorf("CountByCategory = %v", counts)
	}
	if counts[Join] != 0 {
		t.Errorf("Join count should be 0, got %d", counts[Join])
	}
	var order []string
	p.Walk(func(n *Node, d int) { order = append(order, n.Op.Name) })
	want := []string{"Hash Aggregate", "Sort", "Full Table Scan"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("walk order %v, want %v", order, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := samplePlan()
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal to original")
	}
	q.Root.Op.Name = "Changed"
	q.Root.Children[0].Properties[0].Value = Str("other")
	if p.Root.Op.Name == "Changed" {
		t.Error("clone shares root node")
	}
	if p.Root.Children[0].Properties[0].Value.Str == "other" {
		t.Error("clone shares property storage")
	}
	if p.Equal(q) {
		t.Error("mutated clone should differ")
	}
}

func TestEqualIgnoresSource(t *testing.T) {
	p := samplePlan()
	q := p.Clone()
	q.Source = "another"
	if !p.Equal(q) {
		t.Error("Equal must ignore Source")
	}
}

func TestValidate(t *testing.T) {
	p := samplePlan()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := samplePlan()
	bad.Root.Op.Category = "Gizmo"
	if err := bad.Validate(); err == nil {
		t.Error("unknown category must be rejected by default")
	}
	if err := bad.Validate(AllowUnknownCategories()); err != nil {
		t.Errorf("AllowUnknownCategories should accept: %v", err)
	}
	empty := samplePlan()
	empty.Root.Children[0].Op.Name = ""
	if err := empty.Validate(); err == nil {
		t.Error("empty operation name must be rejected")
	}
	shared := samplePlan()
	shared.Root.Children = append(shared.Root.Children, shared.Root.Children[0])
	if err := shared.Validate(); err == nil {
		t.Error("aliased node must be rejected")
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		node, plan := samplePlan(), samplePlan()
		node.Root.Children[0].AddProperty(Cost, "cost", Num(f))
		plan.AddProperty(Cost, "cost", Num(f))
		if node.Validate() == nil || plan.Validate() == nil {
			t.Errorf("Num(%v) must be rejected", f)
		}
	}
}

func TestPropertyLookup(t *testing.T) {
	p := samplePlan()
	if pr, ok := p.Property("planning time"); !ok || pr.Value.Num != 0.124 {
		t.Errorf("plan property lookup failed: %v %v", pr, ok)
	}
	scan := p.Root.Children[0].Children[0]
	if pr, ok := scan.Property("filter"); !ok || pr.Value.Str != "c0 < 100" {
		t.Errorf("node property lookup failed: %v %v", pr, ok)
	}
	if _, ok := scan.Property("missing"); ok {
		t.Error("missing property reported present")
	}
	cfg := scan.PropertiesIn(Configuration)
	if len(cfg) != 2 {
		t.Errorf("PropertiesIn(Configuration) = %d entries, want 2", len(cfg))
	}
}

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"Full Table Scan": "Full_Table_Scan",
		"TopN":            "TopN",
		"a-b.c":           "a_b_c",
		"2phase":          "n2phase",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := DisplayName("Full_Table_Scan"); got != "Full Table Scan" {
		t.Errorf("DisplayName = %q", got)
	}
}

func TestCanonicalNameAlwaysKeyword(t *testing.T) {
	// Property: for any input, CanonicalName output matches the grammar's
	// keyword rule: empty, or letter followed by letters/digits/underscores.
	isKeyword := func(s string) bool {
		for i, r := range s {
			ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
				r >= '0' && r <= '9'
			if !ok {
				return false
			}
			if i == 0 && (r >= '0' && r <= '9') {
				return false
			}
		}
		return true
	}
	f := func(s string) bool { return isKeyword(CanonicalName(s)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatNumber(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		42:     "42",
		-17:    "-17",
		1.5:    "1.5",
		0.124:  "0.124",
		1e20:   "1e+20",
		1000.0: "1000",
	}
	for in, want := range cases {
		if got := FormatNumber(in); got != want {
			t.Errorf("FormatNumber(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSortProperties(t *testing.T) {
	props := []Property{
		{Category: Status, Name: "z"},
		{Category: Cardinality, Name: "b"},
		{Category: Configuration, Name: "a"},
		{Category: Cardinality, Name: "a"},
	}
	SortProperties(props)
	want := []string{"a", "b", "a", "z"} // Cardinality a,b then Config a then Status z
	for i, p := range props {
		if p.Name != want[i] {
			t.Fatalf("sorted order %v", props)
		}
	}
	if props[0].Category != Cardinality || props[3].Category != Status {
		t.Fatalf("category order wrong: %v", props)
	}
}

func TestEmptyPlanBehaviour(t *testing.T) {
	p := &Plan{}
	if p.NodeCount() != 0 || p.Depth() != 0 {
		t.Error("empty plan should have no nodes")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("empty plan should validate: %v", err)
	}
	// InfluxDB-style: properties only.
	p.AddProperty(Cardinality, "TotalSeries", Num(5))
	if err := p.Validate(); err != nil {
		t.Errorf("property-only plan should validate: %v", err)
	}
}

// TestPropertyCategoryIndex mirrors TestCategoryIndex for the four
// property categories the binary codec encodes by index.
func TestPropertyCategoryIndex(t *testing.T) {
	for i, c := range PropertyCategories {
		if got := PropertyCategoryIndex(c); got != i {
			t.Errorf("PropertyCategoryIndex(%s) = %d, want %d", c, got, i)
		}
	}
	if got := PropertyCategoryIndex("Provenance"); got != -1 {
		t.Errorf("PropertyCategoryIndex(unknown) = %d, want -1", got)
	}
}
