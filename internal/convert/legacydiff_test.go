package convert_test

import (
	"sort"
	"strings"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
)

// canonicalPlanText renders a plan with every property list sorted by
// (category, name, rendered value), so representations that only differ
// in property insertion order — the legacy map[string]any decoders
// iterate JSON objects in random map order, the streaming decoder in
// document order — serialize to identical bytes.
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

// TestStreamingDecoderMatchesLegacyPath is the differential guard for the
// streaming JSON decode port: across the full nine-dialect benchmark
// corpus, the streaming decoders must produce byte-identical canonical
// plans to the retained map[string]any reference path
// (convert.LegacyConvert). Non-JSON records flow through the shared
// text/table/XML parsers in both paths and keep the corpus honest about
// covering all nine dialects.
//
// Known, deliberate divergence not exercised by the corpus: composite
// property values (objects/arrays used as scalars). The streaming path
// captures them as compacted source text — original key order and
// escaping — while the legacy path re-marshals the decoded tree (sorted
// keys, HTML escaping). The corpus engines emit composites with sorted
// keys and Go-marshal escaping, so both forms coincide here; inputs with
// unsorted composite keys would legitimately differ.
func TestStreamingDecoderMatchesLegacyPath(t *testing.T) {
	corpus, err := bench.Corpus(42)
	if err != nil {
		t.Fatal(err)
	}
	jsonRecords := 0
	for i, rec := range corpus {
		trimmed := strings.TrimSpace(rec.Serialized)
		isJSON := strings.HasPrefix(trimmed, "{") || strings.HasPrefix(trimmed, "[")
		if isJSON {
			jsonRecords++
		}
		got, err := convert.ConvertInto(rec.Dialect, rec.Serialized, nil)
		if err != nil {
			t.Fatalf("record %d (%s): streaming convert: %v", i, rec.Dialect, err)
		}
		want, err := convert.LegacyConvert(rec.Dialect, rec.Serialized)
		if err != nil {
			t.Fatalf("record %d (%s): legacy convert: %v", i, rec.Dialect, err)
		}
		if g, w := canonicalPlanText(got), canonicalPlanText(want); g != w {
			t.Errorf("record %d (%s): streaming and legacy plans diverge\n--- streaming ---\n%s\n--- legacy ---\n%s",
				i, rec.Dialect, g, w)
		}
		// The structural fingerprint — QPG's dedup key — must agree too.
		opts := core.FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
		if got.FingerprintBytes(opts) != want.FingerprintBytes(opts) {
			t.Errorf("record %d (%s): fingerprints diverge", i, rec.Dialect)
		}
	}
	// The corpus must actually exercise the streaming decoders: the five
	// JSON-default dialects contribute 2/3 of the records.
	if jsonRecords < len(corpus)/2 {
		t.Fatalf("only %d/%d corpus records are JSON; differential coverage collapsed",
			jsonRecords, len(corpus))
	}
}

// TestArenaDecoderMatchesLegacyPath is the differential guard for the
// arena memory model: across the full nine-dialect corpus, plans built
// into one continuously reused arena (reset between records, detached with
// Plan.Clone — exactly what a batch worker does) must serialize to
// byte-identical canonical text and hash to equal fingerprints as the
// retained legacy reference path. This is what proves slab recycling,
// frontier growth, and compact cloning never corrupt or reorder plan
// content.
func TestArenaDecoderMatchesLegacyPath(t *testing.T) {
	corpus, err := bench.Corpus(42)
	if err != nil {
		t.Fatal(err)
	}
	arena := core.NewPlanArena()
	opts := core.FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
	for i, rec := range corpus {
		arena.Reset()
		built, err := convert.ConvertInto(rec.Dialect, rec.Serialized, arena)
		if err != nil {
			t.Fatalf("record %d (%s): arena convert: %v", i, rec.Dialect, err)
		}
		got := built.Clone() // detach, like batch workers do
		want, err := convert.LegacyConvert(rec.Dialect, rec.Serialized)
		if err != nil {
			t.Fatalf("record %d (%s): legacy convert: %v", i, rec.Dialect, err)
		}
		if g, w := canonicalPlanText(got), canonicalPlanText(want); g != w {
			t.Errorf("record %d (%s): arena-built and legacy plans diverge\n--- arena ---\n%s\n--- legacy ---\n%s",
				i, rec.Dialect, g, w)
		}
		if got.MarshalText() != built.MarshalText() {
			t.Errorf("record %d (%s): detached clone differs from its arena original", i, rec.Dialect)
		}
		if got.FingerprintBytes(opts) != want.FingerprintBytes(opts) {
			t.Errorf("record %d (%s): fingerprints diverge", i, rec.Dialect)
		}
	}
}
