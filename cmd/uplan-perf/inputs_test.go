package main

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// inputDigest hashes records in order, for the determinism test.
func inputDigest(recs []record) [32]byte {
	h := sha256.New()
	var n [8]byte
	for _, r := range recs {
		for _, s := range []string{r.Dialect, string(r.Format), r.Serialized} {
			binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
			h.Write(n[:])
			h.Write([]byte(s))
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func TestInputsAreDeterministic(t *testing.T) {
	gens := []struct {
		name string
		gen  func(seed int64) ([]record, error)
	}{
		{"hot", hotRecords},
		{"cold", func(seed int64) ([]record, error) { return coldRecords(seed, 20) }},
	}
	for _, g := range gens {
		a, err := g.gen(1)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		b, err := g.gen(1)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		c, err := g.gen(2)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if len(a) == 0 || inputDigest(a) != inputDigest(b) {
			t.Errorf("%s: seed 1 twice gave different inputs", g.name)
		}
		if inputDigest(a) == inputDigest(c) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", g.name)
		}
	}
}

func TestColdStreamCoversEveryConverterPath(t *testing.T) {
	recs, err := coldRecords(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	for _, r := range recs {
		paths[pathKey(r.Dialect, r.Format)] = true
	}
	if len(paths) != 17 {
		t.Errorf("cold stream covers %d dialect/format paths, want 17: %v", len(paths), paths)
	}
}

// The campaign's findings and store bytes are a function of the seed:
// the property -compare's digest check relies on.
func TestCampaignRoundIsDeterministic(t *testing.T) {
	var first roundReport
	for k := 0; k < 2; k++ {
		rep, err := runCampaignRound(t.TempDir(), campaignOptions(subSeed(9, 0), 20), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DoneTasks != rep.Tasks || rep.Queries == 0 {
			t.Fatalf("round: %d of %d tasks done, %d queries", rep.DoneTasks, rep.Tasks, rep.Queries)
		}
		if k == 0 {
			first = rep
		} else if rep.Digest != first.Digest || rep.StoreBytes != first.StoreBytes || rep.Queries != first.Queries {
			t.Errorf("second round %s/%d bytes/%d queries, first %s/%d/%d",
				rep.Digest, rep.StoreBytes, rep.Queries, first.Digest, first.StoreBytes, first.Queries)
		}
	}
}
