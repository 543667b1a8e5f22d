package convert

import (
	"fmt"
	"strings"
	"testing"

	"uplan/internal/core"
	"uplan/internal/explain"
)

// arenaGuardSamples builds one serialized plan per representative format
// family for the allocation guards below.
func arenaGuardSamples(t *testing.T) map[string]string {
	t.Helper()
	samples := map[string]string{}
	for key, f := range map[string]explain.Format{
		"postgresql-text": explain.FormatText,
		"postgresql-json": explain.FormatJSON,
		"mysql-json":      explain.FormatJSON,
		"tidb-json":       explain.FormatJSON,
		"tidb-table":      explain.FormatTable,
		"mongodb-json":    explain.FormatJSON,
		"neo4j-json":      explain.FormatJSON,
	} {
		out, err := engine(t, dialectOf(key)).Explain(testQuery, f)
		if err != nil {
			t.Fatal(err)
		}
		samples[key] = out
	}
	samples["postgresql-xml"] = xmlSample(t, "postgresql")
	samples["sqlserver-xml"] = xmlSample(t, "sqlserver")
	return samples
}

// dialectOf is the dialect of an arenaGuardSamples key.
func dialectOf(key string) string {
	dialect, _, _ := strings.Cut(key, "-")
	return dialect
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
		// The JSON formats: the Plan header. Escaped strings short
		// enough to intern decode on the stack.
		"postgresql-json": 2,
		"mysql-json":      2,
		"tidb-json":       2,
		"mongodb-json":    2,
		"neo4j-json":      2,
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

// TestLooksNumericNeverRejectsFloats pins the parseScalar filter: it
// never rejects a decimal literal, so every finite number a plan prints
// still converts to a number, and it rejects the other literals
// ParseFloat accepts (NaN, infinities, hex and underscore forms), so
// converters produce finite numbers only.
func TestLooksNumericNeverRejectsFloats(t *testing.T) {
	accepts := []string{"0", "-1", "+1", "3.14", ".5", "1e9", "1E-9", "9007199254740993", "1e999"}
	for _, s := range accepts {
		if !looksNumeric(s) {
			t.Errorf("looksNumeric(%q) = false, but it is a decimal literal", s)
		}
	}
	rejects := []string{
		"Seq Scan", "t0.c0 > 5", "root", "cop[tikv]", "", "hello", "e5",
		"NaN", "nan", "Inf", "+Inf", "-Infinity", "0x1p-2", "-0X2P4", "1_0.0_1",
	}
	for _, s := range rejects {
		if looksNumeric(s) {
			t.Errorf("looksNumeric(%q) = true; only decimal literals may reach ParseFloat", s)
		}
	}
	for _, s := range nonDecimalLiterals {
		if v := parseScalar(s); v.Kind != core.KindString || v.Str != s {
			t.Errorf("parseScalar(%q) = %+v, want the string kept", s, v)
		}
	}
}

// nonDecimalLiterals are number-like strings a converter must keep as
// strings: ParseFloat reads them as non-finite, hex or underscore
// numbers, or (1e999) rejects them as out of range.
var nonDecimalLiterals = []string{"NaN", "nan", "Inf", "+Inf", "-Infinity", "0x1p-2", "-0X2P4", "1_0.0_1", "1e999"}

// TestNonDecimalLiteralsFixedPoint: a plan whose values are non-decimal
// literals converts, and each of its serializations is a fixed point: the
// canonical text read back by ParseText, and the JSON read back by
// ParseJSON, each give an equal plan with an equal fingerprint. Before
// the literals stayed strings, rows=NaN converted to a number that
// MarshalText printed and ParseText rejected, and that AppendJSON wrote
// as null.
func TestNonDecimalLiteralsFixedPoint(t *testing.T) {
	opts := core.FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
	for _, v := range nonDecimalLiterals {
		inputs := []struct{ path, dialect, raw string }{
			{"postgresql text", "postgresql", fmt.Sprintf("Seq Scan on t1  (cost=0.00..%[1]s rows=%[1]s width=4)\n  Filter: %[1]s\nPlanning Time: %[1]s ms\n", v)},
			{"postgresql json", "postgresql", fmt.Sprintf(`[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "t1", "Total Cost": %[1]q, "Plan Rows": %[1]q}, "Planning Time": %[1]q}]`, v)},
		}
		for _, in := range inputs {
			p, err := Convert(in.dialect, in.raw)
			if err != nil {
				t.Fatalf("%s, %s: %v", in.path, v, err)
			}
			fromText, err := core.ParseText(p.MarshalText())
			if err != nil || !fromText.Equal(p) || fromText.FingerprintBytes(opts) != p.FingerprintBytes(opts) {
				t.Errorf("%s, %s: text is no fixed point (err %v)\n%s", in.path, v, err, p.MarshalText())
			}
			js, err := p.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			fromJSON, err := core.ParseJSON(js)
			if err != nil || !fromJSON.Equal(p) || fromJSON.FingerprintBytes(opts) != p.FingerprintBytes(opts) {
				t.Errorf("%s, %s: JSON is no fixed point (err %v)\n%s", in.path, v, err, js)
			}
		}
	}
}

// TestCostRangeKeepsFiniteEnd: a PostgreSQL range with one non-decimal
// end keeps its other end: cost=0.00..Inf still carries the startup cost
// 0, cost=NaN..35.50 the total cost 35.5, and actual time=NaN..2.50 the
// actual time 2.5 and its actual rows.
func TestCostRangeKeepsFiniteEnd(t *testing.T) {
	for _, v := range nonDecimalLiterals {
		cases := []struct {
			raw  string
			want map[string]float64 // property name → value; absent names must be missing
		}{
			{fmt.Sprintf("Seq Scan on t1  (cost=0.00..%s rows=5 width=4)", v),
				map[string]float64{"startup cost": 0}},
			{fmt.Sprintf("Seq Scan on t1  (cost=%s..35.50 rows=5 width=4)", v),
				map[string]float64{"total cost": 35.5}},
			{fmt.Sprintf("Seq Scan on t1  (cost=0.00..1.00 rows=5 width=4) (actual time=%s..2.50 rows=3 loops=1)", v),
				map[string]float64{"startup cost": 0, "total cost": 1, "actual time": 2.5, "actual rows": 3}},
		}
		for _, c := range cases {
			p, err := Convert("postgresql", c.raw)
			if err != nil {
				t.Fatalf("%s: %v", c.raw, err)
			}
			for _, name := range []string{"startup cost", "total cost", "actual time", "actual rows"} {
				got, ok := p.Root.Property(name)
				want, wantOK := c.want[name]
				switch {
				case ok != wantOK:
					t.Errorf("%s: %s present %v, want %v", c.raw, name, ok, wantOK)
				case ok && !got.Value.Equal(core.Num(want)):
					t.Errorf("%s: %s = %v, want %v", c.raw, name, got.Value, want)
				}
			}
		}
	}
}
