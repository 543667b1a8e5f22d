package uplan

import (
	"bytes"
	"sort"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/codec"
	"uplan/internal/core"
)

// TestCodecMatchesJSONPath is the differential guard for the binary
// codec, in the style of internal/convert's legacy-decoder guards: across the
// full nine-dialect benchmark corpus, a plan encoded to the binary format
// and decoded back — through both the single-blob path and a packed
// corpus read with a continuously reused arena — must serialize to
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

	// Pack every converted plan into one corpus while checking blobs.
	var packed bytes.Buffer
	cw := codec.NewCorpusWriter(&packed)
	want := make([]*core.Plan, 0, len(corpus))
	arena := NewArena()
	for i, rec := range corpus {
		ref, err := Convert(rec.Dialect, rec.Serialized)
		if err != nil {
			t.Fatalf("record %d (%s): convert: %v", i, rec.Dialect, err)
		}
		want = append(want, ref)

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

		if err := cw.Add(ref); err != nil {
			t.Fatalf("record %d (%s): corpus add: %v", i, rec.Dialect, err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Second pass: the packed corpus, decoded with one reused arena (the
	// benchmark's acceptance configuration), must reproduce every plan.
	r, err := codec.NewCorpusReader(packed.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(want) {
		t.Fatalf("packed corpus Len = %d, want %d", r.Len(), len(want))
	}
	for i, ref := range want {
		arena.Reset()
		got, err := r.Next(arena)
		if err != nil {
			t.Fatalf("packed plan %d: %v", i, err)
		}
		if got.MarshalText() != ref.MarshalText() || got.Source != ref.Source {
			t.Errorf("packed plan %d (%s): corpus decode diverges", i, ref.Source)
		}
		if got.Fingerprint64(opts) != ref.Fingerprint64(opts) {
			t.Errorf("packed plan %d (%s): Fingerprint64 diverges", i, ref.Source)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
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
