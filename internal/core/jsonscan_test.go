package core

import (
	"strings"
	"testing"
)

func TestJSONScanMalformed(t *testing.T) {
	bad := []string{
		``, `{`, `[`, `{"a"`, `{"a":}`, `{"a":1,}`, `[1,]`, `{"a" 1}`,
		`{1: 2}`, `"unterminated`, `"bad \q escape"`, `"\u12"`, `"\u12zz"`,
		`nul`, `tru`, `1.`, `.5`, `-`, `1e`, `1e+`,
		"\"ctrl\x01char\"", `{"a": 01}`, `[0123]`,
		strings.Repeat("[", 20000),
	}
	for _, s := range bad {
		r := NewJSONReader(s, nil)
		if err := r.Skip(); err == nil {
			t.Errorf("Skip(%.20q): expected error", s)
		}
	}
}

func TestJSONScanObjectWalk(t *testing.T) {
	r := NewJSONReader(`{"a": 1, "b": {"c": [true, null]}, "d": "x"}`, nil)
	var keys []string
	err := r.Object(func(key string) error {
		keys = append(keys, key)
		return r.Skip()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys, ","); got != "a,b,d" {
		t.Errorf("keys = %s", got)
	}
}

// TestJSONScanKeysDoNotAllocate pins the fast paths: escape-free strings
// are substrings of the input, and an escaped string short enough to
// intern decodes on the stack, so a warm arena returns its canonical copy
// without allocating.
func TestJSONScanKeysDoNotAllocate(t *testing.T) {
	ar := NewPlanArena()
	for _, in := range []string{`"plain key"`, `"(n.id)-[r]->(\"e\".src)\n"`, `"été 😀"`} {
		want := ""
		if avg := testing.AllocsPerRun(200, func() {
			r := NewJSONReader(in, ar)
			if err := r.String(&want); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("String(%s): %v allocs/op, want 0", in, avg)
		}
	}
}

// TestJSONScanLongEscapedString checks the path for escaped strings past
// the intern cap: decoded in full, in one allocation.
func TestJSONScanLongEscapedString(t *testing.T) {
	plain := strings.Repeat("Seq Scan on t0  (cost=0.00..35.50 rows=2550 width=4)", 3)
	in := `"` + plain + `\n\t\"x\"é"`
	var got string
	if avg := testing.AllocsPerRun(100, func() {
		r := NewJSONReader(in, nil)
		if err := r.String(&got); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Errorf("%v allocs/op, want 1", avg)
	}
	if want := plain + "\n\t\"x\"é"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
