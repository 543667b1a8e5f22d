package convert

import (
	"testing"

	"uplan/internal/core"
	"uplan/internal/explain"
)

// arenaGuardSamples builds one serialized plan per representative format
// family for the allocation guards below.
func arenaGuardSamples(t *testing.T) map[string]string {
	t.Helper()
	samples := map[string]string{}
	e := engine(t, "postgresql")
	for key, f := range map[string]explain.Format{
		"postgresql-text": explain.FormatText,
		"postgresql-json": explain.FormatJSON,
	} {
		out, err := e.Explain(testQuery, f)
		if err != nil {
			t.Fatal(err)
		}
		samples[key] = out
	}
	ti := engine(t, "tidb")
	out, err := ti.Explain(testQuery, explain.FormatTable)
	if err != nil {
		t.Fatal(err)
	}
	samples["tidb-table"] = out
	samples["postgresql-xml"] = xmlSample(t, "postgresql")
	samples["sqlserver-xml"] = xmlSample(t, "sqlserver")
	return samples
}

func dialectOf(key string) string {
	switch key {
	case "tidb-table":
		return "tidb"
	case "sqlserver-xml":
		return "sqlserver"
	default:
		return "postgresql"
	}
}

// TestConvertIntoMatchesConvert proves the arena path is semantically
// inert: for each format family, converting into a reused arena yields a
// plan equal to the plain Convert result.
func TestConvertIntoMatchesConvert(t *testing.T) {
	ar := core.NewPlanArena()
	for key, raw := range arenaGuardSamples(t) {
		dialect := dialectOf(key)
		want, err := Convert(dialect, raw)
		if err != nil {
			t.Fatalf("%s: convert: %v", key, err)
		}
		ar.Reset()
		got, err := ConvertInto(dialect, raw, ar)
		if err != nil {
			t.Fatalf("%s: convert into arena: %v", key, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: arena plan differs from heap plan", key)
		}
	}
}

// TestConvertIntoSteadyStateAllocs guards the arena decode paths: once the
// worker's arena has warmed up, converting the same plan again must stay
// within a small constant allocation budget — the *Plan header plus
// whatever scratch the specific parser needs (table parsers build per-row
// cell slices; everything else is zero-copy). A regression here means an
// allocation crept back into a per-node or per-property code path, where
// it would scale with plan size again.
func TestConvertIntoSteadyStateAllocs(t *testing.T) {
	budgets := map[string]float64{
		// Plan header + YAML/format detection scratch: effectively the
		// floor for the text pipeline.
		"postgresql-text": 4,
		// JSON scanning keeps a few closure headers per conversion.
		"postgresql-json": 8,
		// Aligned-table parsing allocates the rows/cells scaffolding.
		"tidb-table": 40,
		// The XML scanners: the Plan header, plus a copy for any escaped
		// value too long to intern.
		"postgresql-xml": 8,
		"sqlserver-xml":  8,
	}
	for key, raw := range arenaGuardSamples(t) {
		dialect := dialectOf(key)
		ar := core.NewPlanArena()
		if _, err := ConvertInto(dialect, raw, ar); err != nil {
			t.Fatalf("%s: warmup: %v", key, err)
		}
		ar.Reset()
		allocs := testing.AllocsPerRun(30, func() {
			if _, err := ConvertInto(dialect, raw, ar); err != nil {
				t.Fatal(err)
			}
			ar.Reset()
		})
		if max := budgets[key]; allocs > max {
			t.Errorf("%s: steady-state ConvertInto allocates %.1f times per plan, budget %.0f", key, allocs, max)
		}
	}
}

// TestLooksNumericNeverRejectsFloats pins the parseScalar fast path: the
// pre-filter may only skip ParseFloat when ParseFloat would fail, never
// the other way around.
func TestLooksNumericNeverRejectsFloats(t *testing.T) {
	accepts := []string{
		"0", "-1", "+1", "3.14", ".5", "1e9", "1E-9", "0x1p-2", "-0X2P4",
		"inf", "+Inf", "-INFINITY", "nan", "NaN", "1_0.0_1", "9007199254740993",
	}
	for _, s := range accepts {
		if !looksNumeric(s) {
			t.Errorf("looksNumeric(%q) = false, but ParseFloat may accept it", s)
		}
	}
	rejects := []string{"Seq Scan", "t0.c0 > 5", "root", "cop[tikv]", "", "hello"}
	for _, s := range rejects {
		if looksNumeric(s) {
			// Allowed (false positives only cost a ParseFloat call), but
			// these particular strings must stay filtered: they are the
			// hot-path property values the fix was measured on.
			t.Errorf("looksNumeric(%q) = true; hot-path filter regressed", s)
		}
	}
}