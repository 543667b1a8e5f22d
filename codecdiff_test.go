package uplan

import (
	"sort"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/codec"
	"uplan/internal/core"
)

// TestCodecMatchesJSONPath is the differential guard for the binary
// codec, in the style of internal/convert's legacy-decoder guards: across the
// full nine-dialect benchmark corpus, a plan encoded to the binary format
// and decoded back into one continuously reused arena must serialize to
// byte-identical canonical text and hash to equal fingerprints as the
// JSON-path original. The JSON round trip (MarshalJSON → ParseJSON) runs
// alongside as the reference serialization: both serializations must
// reproduce the same plan, which is what lets the store and the service
// swap formats without changing meaning.
func TestCodecMatchesJSONPath(t *testing.T) {
	corpus, err := bench.Corpus(42)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}

	arena := NewArena()
	for i, rec := range corpus {
		ref, err := Convert(rec.Dialect, rec.Serialized)
		if err != nil {
			t.Fatalf("record %d (%s): convert: %v", i, rec.Dialect, err)
		}

		blob, err := codec.Encode(ref)
		if err != nil {
			t.Fatalf("record %d (%s): encode: %v", i, rec.Dialect, err)
		}
		arena.Reset()
		got, err := codec.DecodeInto(blob, arena)
		if err != nil {
			t.Fatalf("record %d (%s): decode: %v", i, rec.Dialect, err)
		}
		if g, w := canonicalPlanText(got), canonicalPlanText(ref); g != w {
			t.Errorf("record %d (%s): binary round trip diverges\n--- binary ---\n%s\n--- json path ---\n%s",
				i, rec.Dialect, g, w)
		}
		if got.MarshalText() != ref.MarshalText() {
			t.Errorf("record %d (%s): binary round trip reorders properties", i, rec.Dialect)
		}
		if got.Source != ref.Source {
			t.Errorf("record %d (%s): Source = %q, want %q", i, rec.Dialect, got.Source, ref.Source)
		}
		if got.FingerprintBytes(opts) != ref.FingerprintBytes(opts) {
			t.Errorf("record %d (%s): FingerprintBytes diverges", i, rec.Dialect)
		}
		if got.Fingerprint64(opts) != ref.Fingerprint64(opts) {
			t.Errorf("record %d (%s): Fingerprint64 diverges", i, rec.Dialect)
		}

		// The JSON serialization path must agree with the binary one.
		jsonBytes, err := ref.MarshalJSON()
		if err != nil {
			t.Fatalf("record %d (%s): marshal json: %v", i, rec.Dialect, err)
		}
		viaJSON, err := core.ParseJSON(jsonBytes)
		if err != nil {
			t.Fatalf("record %d (%s): parse json: %v", i, rec.Dialect, err)
		}
		if g, w := canonicalPlanText(got), canonicalPlanText(viaJSON); g != w {
			t.Errorf("record %d (%s): binary and JSON round trips diverge", i, rec.Dialect)
		}

	}
}

// canonicalPlanText renders a plan with every property list sorted by
// (category, name, rendered value), so representations that only differ
// in property insertion order serialize to identical bytes.
func canonicalPlanText(p *core.Plan) string {
	cp := p.Clone()
	sortProps := func(props []core.Property) {
		sort.SliceStable(props, func(i, j int) bool {
			if props[i].Category != props[j].Category {
				return props[i].Category < props[j].Category
			}
			if props[i].Name != props[j].Name {
				return props[i].Name < props[j].Name
			}
			return props[i].Value.String() < props[j].Value.String()
		})
	}
	sortProps(cp.Properties)
	cp.Walk(func(n *core.Node, _ int) { sortProps(n.Properties) })
	return cp.MarshalIndentedText()
}
