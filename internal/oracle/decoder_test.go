package oracle

import "testing"

// TestNewDecoderSharesCachedConverter is the regression test for per-task
// registry rebuilds: every decoder for a dialect must reuse the shared
// cached converter instead of building a fresh registry, while owning its
// own arena.
func TestNewDecoderSharesCachedConverter(t *testing.T) {
	a, err := NewDecoder("mysql")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDecoder("mysql")
	if err != nil {
		t.Fatal(err)
	}
	if a.conv != b.conv {
		t.Error("decoders built separate converters — the registry is being rebuilt per task")
	}
	if a.arena == b.arena {
		t.Error("decoders share an arena — one task's Decode would reset another's plan")
	}
}
