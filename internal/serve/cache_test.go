package serve

import "testing"

// TestCacheKeyDistinct: distinct (dialect, input) pairs get distinct
// keys, including pairs whose parts concatenate to the same bytes (a
// shifted dialect/input boundary, with or without a NUL); the same pair
// always gets the same key.
func TestCacheKeyDistinct(t *testing.T) {
	type pair struct{ dialect, serialized string }
	pairs := []pair{
		{"ab", "c"}, {"a", "bc"}, {"abc", ""}, {"", "abc"},
		{"a\x00b", "c"}, {"a", "b\x00c"}, {"a\x00", "bc"},
		{"postgresql", "Seq Scan on t0"}, {"postgresql", "Seq Scan on t0 "},
		{"mysql", "Seq Scan on t0"},
		{"postgresql\x00\x00\x00\x00\x00\x00\x00\x0a", "x"},
		{"", ""},
	}
	seen := map[cacheKeyHash]pair{}
	for _, pr := range pairs {
		k := cacheKey(pr.dialect, pr.serialized)
		if prev, dup := seen[k]; dup {
			t.Errorf("cacheKey collision: %+v and %+v", prev, pr)
		}
		seen[k] = pr
		if cacheKey(pr.dialect, pr.serialized) != k {
			t.Errorf("cacheKey(%+v) is not deterministic", pr)
		}
	}
}
