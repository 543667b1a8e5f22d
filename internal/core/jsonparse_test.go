package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"uplan/internal/core"
)

const parseErrPrefix = "core: invalid unified plan JSON:"

// checkParseAgainstReference requires ParseJSON to accept exactly what
// the retained encoding/json decoder accepts and to build an equal plan,
// field for field.
func checkParseAgainstReference(t *testing.T, label string, data []byte) {
	t.Helper()
	got, err := core.ParseJSON(data)
	want, wantErr := core.ReferenceParseJSON(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: ParseJSON error %v, reference error %v\ninput: %.300q", label, err, wantErr, data)
	}
	if err != nil && !strings.HasPrefix(err.Error(), parseErrPrefix) {
		t.Fatalf("%s: error %q lacks the %q prefix", label, err, parseErrPrefix)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ParseJSON differs from the reference\n got: %s\nwant: %s", label, got.AppendJSON(nil), want.AppendJSON(nil))
	}
}

// TestParseJSONMatchesReference is the differential guard for the JSON
// reader's plan decoder: over the three-seed benchmark corpus, generated
// plans on all 17 converter paths and the hand-built edge cases, in
// compact and indented form, ParseJSON must equal the retained
// encoding/json decoder field for field.
func TestParseJSONMatchesReference(t *testing.T) {
	n := 0
	check := func(label string, p *core.Plan) {
		checkParseAgainstReference(t, label, p.AppendJSON(nil))
		indented, err := p.MarshalJSONIndent()
		if err != nil {
			t.Fatal(err)
		}
		checkParseAgainstReference(t, label+" (indented)", indented)
		n++
	}
	for i, p := range corpusPlans(t, 42, 43, 44) {
		check(fmt.Sprintf("corpus plan %d", i), p)
	}
	for i, p := range generatedPlans(t, 7, 12) {
		check(fmt.Sprintf("generated plan %d", i), p)
	}
	for name, p := range handPlans() {
		check(name, p)
	}
	if n < 1000 {
		t.Errorf("only %d plans compared", n)
	}
}

// TestParseJSONDivergences pins the four inputs on which ParseJSON differs
// from the encoding/json decoder by design, and the null and unknown-key
// handling the two share.
func TestParseJSONDivergences(t *testing.T) {
	treeA := `{"operation":{"category":"Producer","name":"a"},"properties":[{"category":"Cost","name":"c","value":1}]}`
	cases := []struct {
		name, in  string
		got, want string // AppendJSON of ParseJSON's and the reference's plan; "error" for an error
	}{
		{"keys match with exact case", `{"Source":"x","TREE":` + treeA + `}`,
			`{}`, `{"source":"x","tree":` + treeA + `}`},
		{"trailing data", `{"source":"x"} garbage`, "error", `{"source":"x"}`},
		{"a second value", `{"source":"x"}{"source":"y"}`, "error", `{"source":"x"}`},
		{"repeated tree replaces", `{"tree":` + treeA + `,"tree":{"operation":{"name":"b"}}}`,
			`{"tree":{"operation":{"category":"","name":"b"}}}`,
			`{"tree":{"operation":{"category":"Producer","name":"b"},"properties":[{"category":"Cost","name":"c","value":1}]}}`},
		{"repeated properties replace", `{"properties":[{"category":"Cost","name":"c","value":1}],"properties":[{"name":"d"}]}`,
			`{"properties":[{"category":"","name":"d","value":null}]}`,
			`{"properties":[{"category":"Cost","name":"d","value":1}]}`},
		{"a replaced value is read", `{"properties":[{"name":"n","value":1e999,"value":1}]}`,
			"error", `{"properties":[{"category":"","name":"n","value":1}]}`},
		{"invalid UTF-8 passes through", "{\"source\":\"a\xffb\"}", "{\"source\":\"a\xffb\"}", `{"source":"a�b"}`},
		// Shared with encoding/json.
		{"null child", `{"tree":{"operation":{"category":"Join","name":"j"},"children":[null,{}]}}`,
			`{"tree":{"operation":{"category":"Join","name":"j"},"children":[null,{"operation":{"category":"","name":""}}]}}`,
			`{"tree":{"operation":{"category":"Join","name":"j"},"children":[null,{"operation":{"category":"","name":""}}]}}`},
		{"null property element", `{"properties":[null,{"name":"n","value":null}]}`,
			`{"properties":[{"category":"","name":"","value":null},{"category":"","name":"n","value":null}]}`,
			`{"properties":[{"category":"","name":"","value":null},{"category":"","name":"n","value":null}]}`},
		{"null fields", `{"source":null,"tree":null,"properties":null}`, `{}`, `{}`},
		{"null plan", `null`, `{}`, `{}`},
		{"unknown keys", `{"future":[1,{"a":2}],"source":"x","tree":{"operation":{"name":"s","x":1},"y":null}}`,
			`{"source":"x","tree":{"operation":{"category":"","name":"s"}}}`,
			`{"source":"x","tree":{"operation":{"category":"","name":"s"}}}`},
		{"composite value keeps its text", `{"properties":[{"name":"k","value":[ "a",{"b" : 1} ]}]}`,
			`{"properties":[{"category":"","name":"k","value":"[ \"a\",{\"b\" : 1} ]"}]}`,
			`{"properties":[{"category":"","name":"k","value":"[ \"a\",{\"b\" : 1} ]"}]}`},
		{"number out of range", `{"properties":[{"name":"n","value":-1e999}]}`, "error", "error"},
		{"not an object", `[]`, "error", "error"},
	}
	render := func(p *core.Plan, err error) string {
		if err != nil {
			return "error"
		}
		return string(p.AppendJSON(nil))
	}
	for _, tc := range cases {
		p, err := core.ParseJSON([]byte(tc.in))
		if err != nil && !strings.HasPrefix(err.Error(), parseErrPrefix) {
			t.Errorf("%s: error %q lacks the %q prefix", tc.name, err, parseErrPrefix)
		}
		if tc.name == "invalid UTF-8 passes through" && err == nil {
			// AppendJSON would write U+FFFD; read the field itself.
			if p.Source != "a\xffb" {
				t.Errorf("%s: Source = %q", tc.name, p.Source)
			}
		} else if got := render(p, err); got != tc.got {
			t.Errorf("%s: ParseJSON gives %s (%v), want %s", tc.name, got, err, tc.got)
		}
		if got := render(core.ReferenceParseJSON([]byte(tc.in))); got != tc.want {
			t.Errorf("%s: the reference gives %s, want %s", tc.name, got, tc.want)
		}
	}
}

// schemaKeys are the keys of the unified plan's JSON schema.
var schemaKeys = []string{"source", "tree", "properties", "operation", "category", "name", "children", "value"}

// divergesByDesign reports whether data is one of the inputs on which
// ParseJSON and the encoding/json decoder differ by design: invalid UTF-8,
// a key that matches a schema key only without case, a schema key
// repeated in one object, or data after the value.
func divergesByDesign(data []byte) bool {
	if !utf8.Valid(data) {
		return true
	}
	r := core.NewJSONReader(string(data), nil)
	diverges := false
	var walk func() error
	walk = func() error {
		switch r.Peek() {
		case '{':
			seen := map[string]bool{}
			return r.Object(func(key string) error {
				for _, k := range schemaKeys {
					if strings.EqualFold(key, k) && (key != k || seen[k]) {
						diverges = true
					}
				}
				seen[key] = true
				return walk()
			})
		case '[':
			return r.Array(func(int) error { return walk() })
		}
		return r.Skip()
	}
	if walk() == nil && r.End() != nil {
		diverges = true
	}
	return diverges
}

// BenchmarkParseJSON parses the canonical JSON of the seed-42 corpus, one
// plan per iteration, through JSONReader and through the retained
// encoding/json reference.
func BenchmarkParseJSON(b *testing.B) {
	var docs [][]byte
	for _, p := range corpusPlans(b, 42) {
		docs = append(docs, p.AppendJSON(nil))
	}
	for _, bc := range []struct {
		name  string
		parse func([]byte) (*core.Plan, error)
	}{{"reader", core.ParseJSON}, {"reference", core.ReferenceParseJSON}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.parse(docs[i%len(docs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
