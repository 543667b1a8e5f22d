package convert

import (
	"testing"

	"uplan/internal/core"
	"uplan/internal/explain"
)

// TestJSONScanScalars pins the converters' value semantics over the JSON
// reader: strings run through parseScalar and composites are compacted.
func TestJSONScanScalars(t *testing.T) {
	cases := []struct {
		in   string
		want core.Value
	}{
		{`null`, core.Null()},
		{`true`, core.BoolVal(true)},
		{`false`, core.BoolVal(false)},
		{`42`, core.Num(42)},
		{`-3.25e2`, core.Num(-325)},
		{`"hello"`, core.Str("hello")},
		// Strings run through parseScalar, like the legacy decoders.
		{`"17"`, core.Num(17)},
		{`"true"`, core.BoolVal(true)},
		{`"  spaced  "`, core.Str("spaced")},
		// Escapes decode, including surrogate pairs.
		{`"a\tbé😀"`, core.Str("a\tbé\U0001F600")},
		{`"😀"`, core.Str("\U0001F600")},
		// A failed pair consumes only the first escape, like
		// encoding/json: D800 D800 DC00 → U+FFFD then U+10000.
		{`"\uD800\uD800\uDC00"`, core.Str("\uFFFD\U00010000")},
		{`"\uDC00"`, core.Str("�")},
		// Composite values become compact raw JSON.
		{`[1, 2,  3]`, core.Str(`[1,2,3]`)},
		{"{\n  \"a\": \"x y\",\n  \"b\": [true]\n}", core.Str(`{"a":"x y","b":[true]}`)},
	}
	for _, c := range cases {
		r := core.NewJSONReader(c.in, nil)
		got, err := scanValue(&r, nil)
		if err != nil {
			t.Errorf("scanValue(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("scanValue(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestTiDBJSONRejectsTrailingGarbage pins the json.Unmarshal-compatible
// strictness the streaming TiDB decoder keeps: anything after the plan
// value is an error, unlike the Decode-style converters.
func TestTiDBJSONRejectsTrailingGarbage(t *testing.T) {
	c, err := Cached("tidb")
	if err != nil {
		t.Fatal(err)
	}
	good := `[{"id": "HashAgg_1", "estRows": "3.60"}]`
	if _, err := c.Convert(good); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if _, err := c.Convert(good + ` , garbage`); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// BenchmarkDecodeJSON compares the streaming decoder against the
// retained legacy map[string]any path on a real JSON plan of every
// dialect with a JSON format.
func BenchmarkDecodeJSON(b *testing.B) {
	for _, dialect := range jsonFuzzDialects {
		out, err := engine(b, dialect).Explain(testQuery, explain.FormatJSON)
		if err != nil {
			b.Fatal(err)
		}
		c, err := Cached(dialect)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(dialect+"/stream", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Convert(out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(dialect+"/legacy-map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LegacyConvert(dialect, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
