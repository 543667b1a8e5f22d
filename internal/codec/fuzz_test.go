package codec

import (
	"bytes"
	"errors"
	"testing"

	"uplan/internal/core"
)

// FuzzCodecFrame fuzzes the blob decoder the way FuzzRecordFrame fuzzes
// the store's record frames: seeds are the valid blobs of two plans (the
// second, samplePlan, uses every value encoding and unknown categories)
// plus systematic truncations and bit flips, and the invariants are
//
//  1. no input panics or over-reads the decoder, and every failure wraps
//     ErrCorrupt;
//  2. any successfully decoded plan re-encodes without error, and the
//     re-encoded blob is a fixed point: it decodes to an Equal plan with
//     the same Source and re-encodes byte-identically (the input itself
//     need not be canonical — fuzzed tables may hold unused entries).
func FuzzCodecFrame(f *testing.F) {
	for _, p := range []*core.Plan{fuzzSeedPlan(), samplePlan()} {
		seed, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		// Truncations at the structurally interesting offsets.
		for _, cut := range []int{0, 1, 2, 3, 7, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:cut])
		}
		// Bit flips sweeping header, table, and record regions.
		for pos := 0; pos < len(seed); pos += 5 {
			flipped := append([]byte(nil), seed...)
			flipped[pos] ^= 1 << (pos % 8)
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodeInto(data, core.NewPlanArena()); err == nil {
			checkReencode(t, p)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeInto error %v does not wrap ErrCorrupt", err)
		}
	})
}

// checkReencode asserts invariant 2: decoded plans re-encode
// deterministically to a decode→encode fixed point.
func checkReencode(t *testing.T, p *core.Plan) {
	t.Helper()
	blob, err := Encode(p)
	if err != nil {
		t.Fatalf("re-encoding a decoded plan: %v", err)
	}
	p2, err := DecodeInto(blob, nil)
	if err != nil {
		t.Fatalf("decoding a re-encoded plan: %v", err)
	}
	if !p2.Equal(p) || p2.Source != p.Source {
		t.Fatal("re-encoded plan decodes to a different plan")
	}
	blob2, err := Encode(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encode is not a byte-identical fixed point")
	}
}

func fuzzSeedPlan() *core.Plan {
	scan := core.NewNode(core.Producer, "Seq Scan")
	scan.AddProperty(core.Cardinality, "rows", core.Num(100))
	scan.AddProperty(core.Configuration, "filter", core.Str("a > 1"))
	agg := core.NewNode(core.Folder, "Aggregate")
	agg.AddProperty(core.Cost, "total", core.Num(12.5))
	agg.AddProperty(core.Status, "parallel", core.BoolVal(false))
	agg.AddProperty(core.PropertyCategory("Exotic"), "x", core.Null())
	agg.AddChild(scan)
	p := &core.Plan{Source: "postgresql", Root: agg}
	p.AddProperty(core.Cost, "planning_time", core.Num(0.5))
	return p
}
