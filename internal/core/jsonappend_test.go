package core_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
)

// corpusPlans converts bench.Corpus for each seed.
func corpusPlans(tb testing.TB, seeds ...int64) []*core.Plan {
	tb.Helper()
	var plans []*core.Plan
	for _, seed := range seeds {
		recs, err := bench.Corpus(seed)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range recs {
			p, err := convert.Convert(r.Dialect, r.Serialized)
			if err != nil {
				tb.Fatalf("corpus %d %s: %v", seed, r.Dialect, err)
			}
			plans = append(plans, p)
		}
	}
	return plans
}

// generatedPlans explains perPath generated queries on each of the 17
// dialect/format converter paths, over the schema recipe of the
// benchmark's cold stream (oracle.ApplySchema with 3 tables of 30 rows),
// and converts them.
func generatedPlans(tb testing.TB, seed int64, perPath int) []*core.Plan {
	tb.Helper()
	var plans []*core.Plan
	paths := 0
	for _, name := range dbms.Names() {
		e := dbms.MustNew(name)
		g := sqlancer.New(seed)
		if err := oracle.ApplySchema(e, g, 3, 30); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		for _, f := range e.SupportedFormats() {
			if f == explain.FormatGraph {
				continue
			}
			paths++
			for q := 0; q < perPath; q++ {
				raw, err := e.Explain(g.Query(), f)
				if err != nil {
					tb.Fatalf("%s/%s query %d: %v", name, f, q, err)
				}
				p, err := convert.Convert(name, raw)
				if err != nil {
					tb.Fatalf("%s/%s query %d: %v", name, f, q, err)
				}
				plans = append(plans, p)
			}
		}
	}
	if paths != 17 {
		tb.Fatalf("%d dialect/format paths, want 17", paths)
	}
	return plans
}

// handPlans are the plans whose strings and numbers hit every escaping
// and formatting branch, and whose shapes hit every omitted field.
func handPlans() map[string]*core.Plan {
	node := func(props ...core.Property) *core.Node {
		n := core.NewNode(core.Producer, "Full Table Scan")
		n.Properties = props
		return n
	}
	prop := func(v core.Value) core.Property {
		return core.Property{Category: core.Configuration, Name: "v", Value: v}
	}
	withChild := func(c *core.Node) *core.Node {
		n := core.NewNode(core.Join, "Hash Join")
		n.Children = []*core.Node{node(), c}
		return n
	}
	return map[string]*core.Plan{
		"html":           {Source: "a<b>&c", Root: node(prop(core.Str("x < 5 && y > 6")))},
		"control":        {Root: node(prop(core.Str("\x00\x01\b\f\n\r\t\x1f\x7f\"\\/")))},
		"invalid utf-8":  {Source: "\xff", Root: node(prop(core.Str("a\xc3b\xe2\x80c\xed\xa0\x80")))},
		"line separator": {Root: node(prop(core.Str("a\xe2\x80\xa8b\xe2\x80\xa9c\xc3\xa9")))},
		"non-finite": {Root: node(prop(core.Num(math.NaN())), prop(core.Num(math.Inf(1))),
			prop(core.Num(math.Inf(-1))))},
		"numbers": {Root: node(prop(core.Num(1e-7)), prop(core.Num(1e21)), prop(core.Num(math.Copysign(0, -1))),
			prop(core.Num(1e-6)), prop(core.Num(123456789.125)), prop(core.Num(-2.5e-300)),
			prop(core.Num(math.MaxFloat64)))},
		"scalars":    {Root: node(prop(core.BoolVal(true)), prop(core.BoolVal(false)), prop(core.Null()))},
		"nil child":  {Source: "x", Root: withChild(nil)},
		"nil root":   {Source: "influxdb", Properties: []core.Property{prop(core.Num(3)), prop(core.Str("s"))}},
		"empty":      {},
		"empty list": {Root: &core.Node{Op: core.Operation{}, Properties: []core.Property{}, Children: []*core.Node{}}, Properties: []core.Property{}},
		"categories": {Root: &core.Node{Op: core.Operation{Category: "\xff<", Name: "\xe2\x80\xa8"},
			Properties: []core.Property{{Category: "&", Name: "\x01", Value: core.Str("")}}}},
	}
}

// checkAgainstReference requires AppendJSON to equal the reference
// encoding and MarshalJSONIndent to equal the reference indented one.
func checkAgainstReference(t *testing.T, label string, p *core.Plan) {
	t.Helper()
	want, err := core.ReferenceMarshalJSON(p)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if got := p.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendJSON differs from the reference\n got: %s\nwant: %s", label, got, want)
	}
	prefix := []byte("prefix")
	if got := p.AppendJSON(prefix); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: AppendJSON does not append to a non-empty buffer", label)
	}
	wantIndent, err := core.ReferenceMarshalJSONIndent(p)
	if err != nil {
		t.Fatalf("%s: reference indent: %v", label, err)
	}
	gotIndent, err := p.MarshalJSONIndent()
	if err != nil || !bytes.Equal(gotIndent, wantIndent) {
		t.Fatalf("%s: MarshalJSONIndent differs from the reference (err %v)\n got: %s\nwant: %s", label, err, gotIndent, wantIndent)
	}
}

// TestAppendJSONMatchesReference is the differential guard for the
// appending plan encoder: over the three-seed benchmark corpus,
// generated plans on all 17 converter paths and the hand-built edge
// cases, AppendJSON must equal the retained encoding/json path byte for
// byte, and MarshalJSONIndent must equal json.MarshalIndent of it.
func TestAppendJSONMatchesReference(t *testing.T) {
	n := 0
	for i, p := range corpusPlans(t, 42, 43, 44) {
		checkAgainstReference(t, fmt.Sprintf("corpus plan %d", i), p)
		n++
	}
	for i, p := range generatedPlans(t, 7, 12) {
		checkAgainstReference(t, fmt.Sprintf("generated plan %d", i), p)
		n++
	}
	for name, p := range handPlans() {
		checkAgainstReference(t, name, p)
		n++
	}
	if n < 1000 {
		t.Errorf("only %d plans compared", n)
	}
}

// FuzzPlanJSON: ParseJSON accepts exactly what the retained encoding/json
// decoder accepts and builds an equal plan, except on the inputs that
// differ by design (divergesByDesign); for every input ParseJSON accepts,
// AppendJSON equals the reference encoding, and encoding reaches a fixed
// point after one re-parse. (One re-parse, not zero: an input string with
// invalid UTF-8 is written as U+FFFD escapes, which parse back as the
// valid rune.)
func FuzzPlanJSON(f *testing.F) {
	for _, p := range corpusPlans(f, 42)[:24] {
		f.Add(p.AppendJSON(nil))
	}
	for _, p := range handPlans() {
		f.Add(p.AppendJSON(nil))
	}
	f.Add([]byte(`{"source":"x","tree":{"operation":{"category":"Producer","name":"s"},"children":[null,{}]}}`))
	f.Add([]byte(`{"Source":"x","properties":[{"category":"Status","name":"n","value":[1,{"a":"<"}]}]}`))
	// Nested one level past the reader's depth cap, and exactly at it.
	nested := func(depth int) []byte {
		return []byte(`{"properties":[{"name":"n","value":` + strings.Repeat("[", depth-3) + strings.Repeat("]", depth-3) + `}]}`)
	}
	f.Add(nested(core.MaxNestingDepth + 1))
	f.Add(nested(core.MaxNestingDepth))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !divergesByDesign(data) {
			checkParseAgainstReference(t, "input", data)
		}
		p, err := core.ParseJSON(data)
		if err != nil {
			return
		}
		checkAgainstReference(t, "parsed input", p)
		once := p.AppendJSON(nil)
		p2, err := core.ParseJSON(once)
		if err != nil {
			t.Fatalf("encoding %s does not parse: %v", once, err)
		}
		twice := p2.AppendJSON(nil)
		p3, err := core.ParseJSON(twice)
		if err != nil {
			t.Fatalf("encoding %s does not parse: %v", twice, err)
		}
		if thrice := p3.AppendJSON(nil); !bytes.Equal(thrice, twice) {
			t.Fatalf("encoding is no fixed point after one re-parse:\n%s\n%s", twice, thrice)
		}
	})
}

// BenchmarkPlanAppendJSON encodes the seed-42 corpus into one reused
// buffer: the encoder's own cost, with no buffer growth after the first
// pass.
func BenchmarkPlanAppendJSON(b *testing.B) {
	plans := corpusPlans(b, 42)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = plans[i%len(plans)].AppendJSON(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
}
