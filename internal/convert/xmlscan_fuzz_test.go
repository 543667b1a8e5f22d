package convert

import (
	"testing"

	"uplan/internal/core"
	"uplan/internal/explain"
)

// FuzzXMLScan drives the XML tokenizer through both XML converters with
// arbitrary input. The invariant is robustness: no panic, and either an
// error or a plan that passes Validate. The seeds are generated plans of
// both dialects and their truncations plus hand-written edge cases; they
// run as part of every regular `go test`, and
// `go test -fuzz=FuzzXMLScan ./internal/convert` explores further.
// Equivalence with the encoding/xml reference decoders is asserted
// separately by TestXMLScannerMatchesLegacyPath.
func FuzzXMLScan(f *testing.F) {
	for _, dialect := range []string{"postgresql", "sqlserver"} {
		e := engine(f, dialect)
		for _, q := range []string{
			testQuery,
			"SELECT * FROM t0 WHERE c1 < 5 AND c2 <> 'a&b'",
			"SELECT c2, SUM(c1) FROM t0 GROUP BY c2",
		} {
			raw, err := e.Explain(q, explain.FormatXML)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
			for n := 0; n < len(raw); n += len(raw)/16 + 1 {
				f.Add(raw[:n])
			}
		}
	}
	for _, s := range []string{
		`<explain><Query><Plan><Node-Type>Seq Scan</Node-Type></Plan></Query></explain>`,
		`<ShowPlanXML><RelOp PhysicalOp="Sort"><OrderBy>c</OrderBy><RelOp PhysicalOp="Scan"/></RelOp></ShowPlanXML>`,
		`<?xml version="1.0"?><!-- c --><a:explain xmlns:a="u"><a:Plan><![CDATA[x]]>&#x41;&lt;</a:Plan></a:explain>`,
		`<explain><Plan><Node-Type> </Node-Type><-x>1</-x></Plan></explain>`,
		`<ShowPlanXML><RelOp PhysicalOp="&#x20;"/></ShowPlanXML>`,
		`<a x="1"y='2'/>`, `<a></b>`, `<!DOCTYPE a><a/>`, `<a>]]></a>`, "<a>\xff</a>", `<a>&#xD800;</a>`,
	} {
		f.Add(s)
	}
	pg := &postgresConverter{reg: SharedRegistry()}
	ss := &sqlserverConverter{reg: SharedRegistry()}
	f.Fuzz(func(t *testing.T, s string) {
		for _, conv := range []struct {
			name string
			fn   func(string, *core.PlanArena) (*core.Plan, error)
		}{
			{"postgresql", pg.convertXML},
			{"sqlserver", ss.convertXML},
		} {
			plan, err := conv.fn(s, core.NewPlanArena())
			if err != nil {
				continue
			}
			if plan == nil {
				t.Fatalf("%s: nil plan and nil error for %q", conv.name, s)
			}
			if err := plan.Validate(); err != nil {
				t.Fatalf("%s: invalid plan for %q: %v", conv.name, s, err)
			}
		}
	})
}
