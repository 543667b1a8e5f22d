package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarshalTextRoundTrip(t *testing.T) {
	p := samplePlan()
	s := p.MarshalText()
	got, err := ParseText(s)
	if err != nil {
		t.Fatalf("ParseText(%q): %v", s, err)
	}
	if !p.Equal(got) {
		t.Fatalf("round trip mismatch:\n in: %s\nout: %s", s, got.MarshalText())
	}
}

func TestMarshalTextShape(t *testing.T) {
	p := &Plan{Root: NewNode(Producer, "Full Table Scan")}
	s := p.MarshalText()
	if s != "Operation: Producer->Full_Table_Scan" {
		t.Errorf("single node text = %q", s)
	}
	p.Root.AddChild(NewNode(Executor, "Collect"))
	s = p.MarshalText()
	if !strings.Contains(s, "--children--> {Operation: Executor->Collect}") {
		t.Errorf("children encoding wrong: %q", s)
	}
}

func TestIndentedRoundTrip(t *testing.T) {
	p := samplePlan()
	s := p.MarshalIndentedText()
	got, err := ParseText(s)
	if err != nil {
		t.Fatalf("ParseText indented: %v\n%s", err, s)
	}
	if !p.Equal(got) {
		t.Fatalf("indented round trip mismatch:\nin:\n%s\nout:\n%s",
			s, got.MarshalIndentedText())
	}
}

func TestIndentedListing4Style(t *testing.T) {
	// The indented form from the paper's Listing 4 (excerpt), with
	// properties below operations.
	in := strings.Join([]string{
		"Combinator->Sort",
		"  Folder->Aggregate",
		"    Join->Hash Join",
		"      Producer->Full Table Scan",
		"        Configuration->name object: \"partsupp\"",
		"      Executor->Hash Row",
		"        Producer->Full Table Scan",
		"          Configuration->name object: \"supplier\"",
	}, "\n")
	p, err := ParseText(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op.Name != "Sort" || p.Root.Op.Category != Combinator {
		t.Fatalf("root = %v", p.Root.Op)
	}
	if p.NodeCount() != 6 {
		t.Fatalf("NodeCount = %d, want 6", p.NodeCount())
	}
	join := p.Root.Children[0].Children[0]
	if join.Op.Name != "Hash Join" || len(join.Children) != 2 {
		t.Fatalf("join node wrong: %v children=%d", join.Op, len(join.Children))
	}
	scan := join.Children[0]
	if pr, ok := scan.Property("name object"); !ok || pr.Value.Str != "partsupp" {
		t.Fatalf("scan property missing: %v", scan.Properties)
	}
}

func TestParsePlanPropertiesOnly(t *testing.T) {
	// InfluxDB-style plan: no tree, only plan properties.
	in := `Cardinality->TotalSeries: 5, Status->PlanningTime: 0.3`
	p, err := ParseText(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root != nil {
		t.Fatal("expected no tree")
	}
	if len(p.Properties) != 2 {
		t.Fatalf("got %d properties", len(p.Properties))
	}
	if p.Properties[0].Name != "TotalSeries" || p.Properties[0].Value.Num != 5 {
		t.Errorf("property parse wrong: %+v", p.Properties[0])
	}
}

func TestParseMultiWordIdentifiers(t *testing.T) {
	in := `Operation: Producer->Full Table Scan Configuration->name object: "t0"`
	p, err := ParseText(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op.Name != "Full Table Scan" {
		t.Errorf("multi-word op name = %q", p.Root.Op.Name)
	}
	if pr, ok := p.Root.Property("name object"); !ok || pr.Value.Str != "t0" {
		t.Errorf("multi-word property name parse failed: %v", p.Root.Properties)
	}
}

func TestParseValueKinds(t *testing.T) {
	in := `Configuration->a: "s", Cardinality->b: -42, Cost->c: 1.5, Status->d: true, Status->e: false, Status->f: null`
	p, err := ParseText(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []Value{Str("s"), Num(-42), Num(1.5), BoolVal(true), BoolVal(false), Null()}
	if len(p.Properties) != len(want) {
		t.Fatalf("got %d properties, want %d: %+v", len(p.Properties), len(want), p.Properties)
	}
	for i, w := range want {
		if !p.Properties[i].Value.Equal(w) {
			t.Errorf("property %d = %+v, want %+v", i, p.Properties[i].Value, w)
		}
	}
	// MarshalIndentedText writes a non-finite number as a word. The
	// one-line form refuses the word, and the indented form reads it as
	// free text, so neither parser builds a non-finite number.
	for _, word := range []string{"NaN", "+Inf", "-Inf"} {
		if _, err := ParseText("Operation: Producer->Scan, Cost->c: " + word); err == nil {
			t.Errorf("one-line %s accepted", word)
		}
		p, err := ParseText("Producer->Scan\n  Cost->c: " + word)
		if err != nil {
			t.Errorf("indented %s: %v", word, err)
		} else if v := p.Root.Properties[0].Value; !v.Equal(Str(word)) {
			t.Errorf("indented %s = %+v, want the string", word, v)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`Operation: Producer`,                                  // missing ->name
		`Operation: Producer->Scan --children--> {`,            // unclosed children
		`Operation: Producer->Scan --children--> {Operation: `, // truncated child
		`Configuration->x`,                                     // property without value
	}
	for _, in := range bad {
		if _, err := ParseText(in); err == nil {
			t.Errorf("ParseText(%q) should fail", in)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := ParseText("   \n ")
	if err != nil {
		t.Fatal(err)
	}
	if p.Root != nil || len(p.Properties) != 0 {
		t.Error("blank input should produce empty plan")
	}
}

// randomPlan generates a random but valid plan for property-based testing.
func randomPlan(r *rand.Rand, maxDepth int) *Plan {
	names := []string{"Full Table Scan", "Sort", "Hash Join", "Aggregate",
		"Project", "Collect", "Insert", "Index Scan", "TopN9"}
	cats := OperationCategories
	pcats := PropertyCategories
	var gen func(depth int) *Node
	gen = func(depth int) *Node {
		n := NewNode(cats[r.Intn(len(cats))], names[r.Intn(len(names))])
		for i := r.Intn(3); i > 0; i-- {
			var v Value
			switch r.Intn(4) {
			case 0:
				v = Str("val" + string(rune('a'+r.Intn(26))))
			case 1:
				v = Num(float64(r.Intn(1000)))
			case 2:
				v = BoolVal(r.Intn(2) == 0)
			default:
				v = Null()
			}
			n.AddProperty(pcats[r.Intn(len(pcats))], "prop"+string(rune('a'+r.Intn(26))), v)
		}
		if depth < maxDepth {
			for i := r.Intn(3); i > 0; i-- {
				n.AddChild(gen(depth + 1))
			}
		}
		return n
	}
	p := &Plan{Root: gen(0)}
	if r.Intn(2) == 0 {
		p.AddProperty(Status, "planning time", Num(float64(r.Intn(100))/10))
	}
	return p
}

func TestQuickTextRoundTrip(t *testing.T) {
	// Property: MarshalText followed by ParseText preserves structure for
	// any plan whose names canonicalize losslessly (we compare via a
	// canonicalized clone).
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPlan(r, 3)
		// Canonical expectation: names that round trip through
		// CanonicalName+DisplayName.
		exp := p.Clone()
		exp.Walk(func(n *Node, _ int) {
			n.Op.Name = DisplayName(CanonicalName(n.Op.Name))
			for i := range n.Properties {
				n.Properties[i].Name = DisplayName(CanonicalName(n.Properties[i].Name))
			}
		})
		for i := range exp.Properties {
			exp.Properties[i].Name = DisplayName(CanonicalName(exp.Properties[i].Name))
		}
		got, err := ParseText(p.MarshalText())
		if err != nil {
			t.Logf("parse error for seed %d: %v", seed, err)
			return false
		}
		if !exp.Equal(got) {
			t.Logf("seed %d:\nwant %s\ngot  %s", seed, exp.MarshalText(), got.MarshalText())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIndentedRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPlan(r, 3)
		// Indented form preserves spaces in names; only string values with
		// no special characters are used by randomPlan, so exact equality
		// should hold.
		got, err := ParseText(p.MarshalIndentedText())
		if err != nil {
			t.Logf("seed %d parse error: %v", seed, err)
			return false
		}
		if !p.Equal(got) {
			t.Logf("seed %d mismatch:\nwant\n%s\ngot\n%s", seed,
				p.MarshalIndentedText(), got.MarshalIndentedText())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestParseIndentedPropertyOwnership(t *testing.T) {
	in := "Folder->Aggregate\n" +
		"  Configuration->group key: \"c0\"\n" +
		"  Producer->Full Table Scan\n" +
		"    Configuration->filter: \"c0 < 5\"\n" +
		"Status->planning time: 1.5\n"
	p, err := ParseText(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Root.Property("group key"); !ok {
		t.Error("group key should belong to Aggregate")
	}
	if _, ok := p.Root.Children[0].Property("filter"); !ok {
		t.Error("filter should belong to the scan")
	}
	if _, ok := p.Property("planning time"); !ok {
		t.Error("planning time should be plan-associated")
	}
}

func TestParseTextDetectsForm(t *testing.T) {
	ebnf := samplePlan().MarshalText()
	ind := samplePlan().MarshalIndentedText()
	p1, err1 := ParseText(ebnf)
	p2, err2 := ParseText(ind)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if !reflect.DeepEqual(p1.Histogram(), p2.Histogram()) {
		t.Error("both forms should describe the same plan")
	}
}
