package serve

import "testing"

// TestCacheKeyDistinct: distinct (dialect, input, format) triples get
// distinct keys, including triples whose parts concatenate to the same
// bytes (a shifted dialect/input boundary, with or without a NUL) and
// triples differing only in format; the same triple always gets the same
// key.
func TestCacheKeyDistinct(t *testing.T) {
	type triple struct {
		dialect, serialized string
		binary              bool
	}
	triples := []triple{
		{"ab", "c", false}, {"a", "bc", false}, {"abc", "", false}, {"", "abc", false},
		{"ab", "c", true}, {"a", "bc", true},
		{"a\x00b", "c", false}, {"a", "b\x00c", false}, {"a\x00", "bc", false},
		{"postgresql", "Seq Scan on t0", false}, {"postgresql", "Seq Scan on t0", true},
		{"postgresql", "Seq Scan on t0 ", false}, {"mysql", "Seq Scan on t0", false},
		{"postgresql\x00\x00\x00\x00\x00\x00\x00\x0a", "x", false},
		{"", "", false}, {"", "", true},
	}
	seen := map[cacheKeyHash]triple{}
	for _, tr := range triples {
		k := cacheKey(tr.dialect, tr.serialized, tr.binary)
		if prev, dup := seen[k]; dup {
			t.Errorf("cacheKey collision: %+v and %+v", prev, tr)
		}
		seen[k] = tr
		if cacheKey(tr.dialect, tr.serialized, tr.binary) != k {
			t.Errorf("cacheKey(%+v) is not deterministic", tr)
		}
	}
}
