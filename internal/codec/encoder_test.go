package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// TestEncoderReuseMatchesFresh pins the reuse contract: encoding plan B
// after plan A with one Encoder yields exactly the bytes of a fresh
// Encode(B), over shuffled pairs of the benchmark corpus. An Encoder that
// kept A's string table would carry A's entries (or shift B's refs) into
// B's blob.
func TestEncoderReuseMatchesFresh(t *testing.T) {
	plans, err := corpusPlans()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 7))
	var enc Encoder
	for i := 0; i < 2*len(plans); i++ {
		a, b := plans[rng.IntN(len(plans))], plans[rng.IntN(len(plans))]
		if _, err := enc.AppendEncode(nil, a); err != nil {
			t.Fatal(err)
		}
		got, err := enc.AppendEncode(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pair %d: reused Encoder's blob (%d bytes) differs from a fresh Encode (%d bytes)", i, len(got), len(want))
		}
		if len(want) != cap(want) {
			t.Fatalf("pair %d: Encode returned len %d cap %d, want an exactly sized slice", i, len(want), cap(want))
		}

		// The length-prefixed form is the same blob behind its uvarint length.
		framed, err := enc.AppendEncodeLen([]byte("x"), b)
		if err != nil {
			t.Fatal(err)
		}
		n, k := binary.Uvarint(framed[1:])
		if framed[0] != 'x' || k <= 0 || n != uint64(len(want)) || !bytes.Equal(framed[1+k:], want) {
			t.Fatalf("pair %d: AppendEncodeLen does not frame the blob behind its length", i)
		}
	}
}

// TestEncoderFailureLeavesDst: a failed encode returns dst unchanged, and
// the Encoder encodes the next plan correctly.
func TestEncoderFailureLeavesDst(t *testing.T) {
	var enc Encoder
	dst := []byte("keep")
	for _, appendFn := range []func([]byte) ([]byte, error){
		func(d []byte) ([]byte, error) { return enc.AppendEncode(d, nil) },
		func(d []byte) ([]byte, error) { return enc.AppendEncodeLen(d, nil) },
	} {
		out, err := appendFn(dst)
		if err == nil || string(out) != "keep" {
			t.Fatalf("nil plan: out %q, err %v; want dst unchanged and an error", out, err)
		}
	}
	p := fuzzSeedPlan()
	got, err := enc.AppendEncode(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("encode after a failure differs from a fresh Encode")
	}
}

// TestEncoderWarmAllocs: a warm Encoder appending into a pre-sized
// buffer allocates nothing per plan — the table map, entry list and
// record scratch are all reused.
func TestEncoderWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	plans, err := corpusPlans()
	if err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	var buf []byte
	for _, p := range plans {
		blob, err := enc.AppendEncode(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) > cap(buf) {
			buf = make([]byte, 0, len(blob))
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		for _, p := range plans {
			if _, err := enc.AppendEncode(buf[:0], p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perPlan := avg / float64(len(plans)); perPlan != 0 {
		t.Fatalf("warm Encoder: %.3f allocs/plan, want 0", perPlan)
	}
}
