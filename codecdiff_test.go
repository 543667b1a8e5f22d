package uplan

import (
	"bytes"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/codec"
	"uplan/internal/core"
)

// TestCodecMatchesJSONPath is the serialization fixed-point guard: across
// the nine-dialect benchmark corpus of seeds 42–44, every serialization
// of a converted plan reads back as the same plan, which is what lets the
// store and the service swap formats without changing meaning. The JSON
// (AppendJSON → ParseJSON) and the codec (Encode → DecodeInto, into one
// continuously reused arena) must each give back AppendJSON bytes
// identical to the original's and an equal Fingerprint64; so must the
// indented text (MarshalIndentedText → ParseText), which carries no
// Source. The one-line text (MarshalText → ParseText) carries no Source
// either, and must do the same under its identifier rule: a name reads
// back as DisplayName(CanonicalName(name)), so MySQL's query_cost comes
// back as "query cost" and SQLite's B-TREE as "B TREE". About a quarter
// of the corpus plans (186 of 792) differ from the original only so.
func TestCodecMatchesJSONPath(t *testing.T) {
	opts := core.FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
	arena := NewArena()
	n, renamed := 0, 0
	for _, seed := range []int64{42, 43, 44} {
		corpus, err := bench.Corpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range corpus {
			ref, err := Convert(rec.Dialect, rec.Serialized)
			if err != nil {
				t.Fatalf("seed %d record %d (%s): convert: %v", seed, i, rec.Dialect, err)
			}
			check := func(path string, want, got *core.Plan) {
				t.Helper()
				if w, g := want.AppendJSON(nil), got.AppendJSON(nil); !bytes.Equal(g, w) {
					t.Errorf("seed %d record %d (%s): %s round trip diverges\n got: %s\nwant: %s", seed, i, rec.Dialect, path, g, w)
				}
				if want.Fingerprint64(opts) != got.Fingerprint64(opts) {
					t.Errorf("seed %d record %d (%s): %s round trip moves Fingerprint64", seed, i, rec.Dialect, path)
				}
			}

			viaJSON, err := core.ParseJSON(ref.AppendJSON(nil))
			if err != nil {
				t.Fatalf("seed %d record %d (%s): parse json: %v", seed, i, rec.Dialect, err)
			}
			check("JSON", ref, viaJSON)

			blob, err := codec.Encode(ref)
			if err != nil {
				t.Fatalf("seed %d record %d (%s): encode: %v", seed, i, rec.Dialect, err)
			}
			arena.Reset()
			viaCodec, err := codec.DecodeInto(blob, arena)
			if err != nil {
				t.Fatalf("seed %d record %d (%s): decode: %v", seed, i, rec.Dialect, err)
			}
			check("codec", ref, viaCodec)

			noSource := ref.Clone()
			noSource.Source = ""
			viaIndented, err := core.ParseText(ref.MarshalIndentedText())
			if err != nil {
				t.Fatalf("seed %d record %d (%s): parse indented text: %v", seed, i, rec.Dialect, err)
			}
			check("indented text", noSource, viaIndented)

			renamedRef := noSource.Clone()
			rename := func(props []core.Property) {
				for k := range props {
					props[k].Name = core.DisplayName(core.CanonicalName(props[k].Name))
				}
			}
			rename(renamedRef.Properties)
			renamedRef.Walk(func(nd *core.Node, _ int) {
				nd.Op.Name = core.DisplayName(core.CanonicalName(nd.Op.Name))
				rename(nd.Properties)
			})
			if !renamedRef.Equal(noSource) {
				renamed++
			}
			viaText, err := core.ParseText(ref.MarshalText())
			if err != nil {
				t.Fatalf("seed %d record %d (%s): parse text: %v", seed, i, rec.Dialect, err)
			}
			check("one-line text", renamedRef, viaText)
			n++
		}
	}
	if n != 792 || renamed == 0 || renamed == n {
		t.Errorf("%d plans, %d renamed by the one-line identifier rule", n, renamed)
	}
}
