package convert_test

import (
	"strings"
	"testing"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
)

// xmlDialects are the engines with an XML explain format.
var xmlDialects = []string{"postgresql", "sqlserver"}

// generatedXMLPlans explains perEngine generated queries per seed on each
// XML engine, over the schema recipe of the benchmark's cold stream
// (oracle.ApplySchema with 3 tables of 30 rows).
func generatedXMLPlans(t *testing.T, seeds []int64, perEngine int) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, seed := range seeds {
		for _, name := range xmlDialects {
			e := dbms.MustNew(name)
			g := sqlancer.New(seed)
			if err := oracle.ApplySchema(e, g, 3, 30); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for q := 0; q < perEngine; q++ {
				raw, err := e.Explain(g.Query(), explain.FormatXML)
				if err != nil {
					t.Fatalf("%s seed %d query %d: %v", name, seed, q, err)
				}
				out[name] = append(out[name], raw)
			}
		}
	}
	return out
}

// unitXMLPlans are the fixed XML inputs: the converter tests' join
// query on both engines, and hand-written documents covering entities,
// CDATA, comments, namespaces, the prolog, mixed content, repeated
// elements, and malformed input.
func unitXMLPlans(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{
		"postgresql": {
			`<explain xmlns="http://www.postgresql.org/2009/explain"><Query><Plan>` +
				`<Node-Type>Seq Scan</Node-Type><Relation-Name>t&amp;0</Relation-Name>` +
				`<Filter><![CDATA[(c0 < 5)]]> AND &#x28;c1 &gt; &#55;)</Filter>` +
				`<!-- a comment --><Output><Item>c0</Item><Item>c1</Item></Output>` +
				`<Sort-Key>  c0  </Sort-Key><Plans/></Plan><Planning-Time> 0.5 ms </Planning-Time><Blank> </Blank></Query></explain>`,
			"<explain>\r\n<Query><Query><Plan><Node-Type>Limit</Node-Type><Node-Type>Sort</Node-Type>" +
				"<Total-Cost>1.5</Total-Cost><x:Rows xmlns:x=\"u\">7</x:Rows><Plans><Other/>" +
				"<Plan><Node-Type>Seq Scan</Node-Type><Plan-Width>4</Plan-Width></Plan></Plans>" +
				"</Plan></Query><Execution-Time>2\r\n</Execution-Time><Empty/></Query></explain>\n",
			`<explain><Query><Plan><Node-Type>Result</Node-Type></Plan><Plan><Node-Type>Hash</Node-Type></Plan></Query></explain>`,
			// Malformed: both paths must reject these.
			`<explain><Query><Plan><Node-Type>Seq Scan</Node-Type></Plan></Query>`,
			`<explain><Query><Plan><Node-Type>Seq Scan</Node-Typ></Plan></Query></explain>`,
			`<explain><Query><Plan><Node-Type>a &bogus; b</Node-Type></Plan></Query></explain>`,
			`<explain><Query><Plan><Node-Type>a &#0; b</Node-Type></Plan></Query></explain>`,
			`<explain><Query><Plan><Node-Type>Seq Scan</Node-Type><!-- a -- b --></Plan></Query></explain>`,
			`<explain><Query><Plan a=1><Node-Type>Seq Scan</Node-Type></Plan></Query></explain>`,
			`<explain><Query><Plan a="<"><Node-Type>Seq Scan</Node-Type></Plan></Query></explain>`,
			`<explain><Query><Plan><Node-Type>x ]]> y</Node-Type></Plan></Query></explain>`,
			"<explain><Query><Plan><Node-Type>bad \xff utf8</Node-Type></Plan></Query></explain>",
			`<explain><Query></Query></explain>`,
			// The reference decoder accepts a Plan without Node-Type into
			// a plan that fails Validate; the scanner rejects it.
			`<explain><Query><Plan><Total-Cost>1</Total-Cost></Plan></Query></explain>`,
			"not xml at all",
		},
		"sqlserver": {
			`<?xml version="1.0"?><ShowPlanXML xmlns="http://schemas.microsoft.com/sqlserver/2004/07/showplan">` +
				`<!-- c --><QueryPlan><s:RelOp xmlns:s="u" PhysicalOp="Table Scan" LogicalOp="a &amp; b" EstimateRows='3'>` +
				`<s:Predicate><![CDATA[x < 5]]> &#x41;&#66;</s:Predicate><Object Table="[t&quot;0]"/>` +
				`<Warnings><RelOp PhysicalOp="Hidden"/></Warnings></s:RelOp></QueryPlan></ShowPlanXML>`,
			"<ShowPlanXML><RelOp PhysicalOp=\"Sort\" EstimatedTotalSubtreeCost=\"2.5\">\r\n" +
				"<OrderBy>c1</OrderBy><Predicate>p1</Predicate><OrderBy>c2</OrderBy><Object/>" +
				"<Object Table=\"[t1]\"><Extra>x</Extra></Object><GroupBy>a<Inner>b</Inner>c</GroupBy><Object Table=\"[t3]\"/>" +
				"<RelOp PhysicalOp=\"Table Scan\"/><RelOp PhysicalOp=\"Index Seek\"><Object Table=\"[t2]\"/></RelOp>" +
				"</RelOp></ShowPlanXML>",
			`<ShowPlanXML><RelOp PhysicalOp="Compute Scalar" LogicalOp=" spaced "/></ShowPlanXML>`,
			// Malformed: both paths must reject these.
			`<ShowPlanXML></ShowPlanXML>`,
			`<ShowPlanXML><RelOp PhysicalOp="Sort"><OrderBy>c</OrderBy></RelOp2></ShowPlanXML>`,
			`<ShowPlanXML><RelOp PhysicalOp="Sort"><OrderBy>c &nbsp;</OrderBy></RelOp></ShowPlanXML>`,
			`<ShowPlanXML><RelOp PhysicalOp="Sort" EstimateRows=3></RelOp></ShowPlanXML>`,
			`<ShowPlanXML><RelOp PhysicalOp="Sort"><OrderBy>c</OrderBy>`,
			`<ShowPlanXML><RelOp PhysicalOp="Sort"><![CDATA[x</RelOp></ShowPlanXML>`,
			`<ShowPlanXML><RelOp PhysicalOp="Sort"><a:b:c/></RelOp></ShowPlanXML>`,
			// Accepted by the reference into a plan that fails Validate.
			`<ShowPlanXML><RelOp LogicalOp="Sort"></RelOp></ShowPlanXML>`,
			`<xml>wrong</xml>`,
		},
	}
	// The converter tests' join query.
	for _, name := range xmlDialects {
		e := dbms.MustNew(name)
		for _, s := range []string{
			"CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 INT, c2 TEXT)",
			"CREATE TABLE t1 (c0 INT, v TEXT)",
			"INSERT INTO t0 VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')",
			"INSERT INTO t1 VALUES (1, 'x'), (3, 'y')",
		} {
			if _, err := e.Execute(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Analyze(); err != nil {
			t.Fatal(err)
		}
		raw, err := e.Explain("SELECT t0.c2, COUNT(*) FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 "+
			"WHERE t0.c1 > 5 GROUP BY t0.c2 ORDER BY t0.c2 LIMIT 10", explain.FormatXML)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = append(out[name], raw)
	}
	return out
}

// truncations cuts raw at every stride-th byte. For SQL Server it stops
// short of the root RelOp's end tag: the reference decoder never reads
// past that tag, so it accepts a document cut after it, which the
// scanner — checking the whole document — rejects by design.
func truncations(dialect, raw string, stride int) []string {
	limit := len(raw)
	if dialect == "sqlserver" {
		limit = strings.LastIndex(raw, "</RelOp>") + len("</RelOp")
	}
	var out []string
	for n := 0; n < limit; n += stride {
		out = append(out, raw[:n])
	}
	return out
}

// TestXMLScannerMatchesLegacyPath is the differential guard for the
// xmlScan port: over 2,100 generated XML plans of both engines across
// five schema seeds, the fixed unit inputs and truncated documents, the
// scanner-backed converters — one-shot and into a reused arena — must
// give byte-identical MarshalText and equal fingerprints to the retained
// encoding/xml reference decoders, and reject exactly the inputs the
// reference rejects. A reference plan that fails Validate counts as a
// rejection: the scanner refuses to build invalid plans.
func TestXMLScannerMatchesLegacyPath(t *testing.T) {
	generated := generatedXMLPlans(t, []int64{1, 2, 3, 4, 5}, 210)
	inputs := unitXMLPlans(t)
	total := 0
	for _, name := range xmlDialects {
		total += len(generated[name])
		inputs[name] = append(inputs[name], generated[name]...)
		for _, raw := range generated[name][:4] {
			inputs[name] = append(inputs[name], truncations(name, raw, 5)...)
		}
	}
	if total < 2000 {
		t.Fatalf("only %d generated XML plans", total)
	}
	opts := core.FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
	ar := core.NewPlanArena()
	for _, name := range xmlDialects {
		accepted := 0
		for i, raw := range inputs[name] {
			want, werr := convert.LegacyConvertXML(name, raw)
			if werr == nil && want.Validate() != nil {
				werr = want.Validate()
			}
			got, gerr := convert.Convert(name, raw)
			ar.Reset()
			built, berr := convert.ConvertInto(name, raw, ar)
			if (gerr == nil) != (werr == nil) || (berr == nil) != (gerr == nil) {
				t.Errorf("%s input %d: scanner err %v, arena err %v, reference err %v\n%s", name, i, gerr, berr, werr, raw)
				continue
			}
			if gerr != nil {
				continue
			}
			accepted++
			if err := got.Validate(); err != nil {
				t.Errorf("%s input %d: invalid plan: %v", name, i, err)
			}
			w := want.MarshalText()
			if g, b := got.MarshalText(), built.MarshalText(); g != w || b != w {
				t.Errorf("%s input %d: plans diverge\n--- scanner ---\n%s\n--- arena ---\n%s\n--- reference ---\n%s", name, i, g, b, w)
			}
			if got.FingerprintBytes(opts) != want.FingerprintBytes(opts) || built.FingerprintBytes(opts) != want.FingerprintBytes(opts) {
				t.Errorf("%s input %d: fingerprints diverge", name, i)
			}
		}
		if accepted < len(generated[name]) {
			t.Errorf("%s: only %d inputs accepted", name, accepted)
		}
		t.Logf("%s: %d inputs, %d accepted by both paths, the rest rejected by both", name, len(inputs[name]), accepted)
	}
}
