package convert

import (
	"bytes"
	"strings"
	"testing"

	"uplan/internal/codec"
	"uplan/internal/core"
	"uplan/internal/explain"
)

// xmlSample is the converter tests' join query explained as XML.
func xmlSample(tb testing.TB, dialect string) string {
	tb.Helper()
	out, err := engine(tb, dialect).Explain(testQuery, explain.FormatXML)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// scanDocument walks a whole document through the scanner, returning
// each element's local name and trimmed text, in document order.
func scanDocument(s string) ([]string, error) {
	sc := newXMLScan(s, nil)
	raw, local, err := sc.root()
	if err != nil {
		return nil, err
	}
	var out []string
	var walk func(raw, local string) error
	walk = func(raw, local string) error {
		for {
			attr, val, ok, err := sc.attr()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			out = append(out, "@"+attr+"="+val)
		}
		out = append(out, "<"+local+">")
		for {
			kind, tok, loc, err := sc.content(raw)
			if err != nil {
				return err
			}
			switch kind {
			case xmlEnd:
				out = append(out, "</"+local+">")
				return nil
			case xmlText:
				if t := strings.TrimSpace(tok); t != "" {
					out = append(out, t)
				}
			case xmlChild:
				if err := walk(tok, loc); err != nil {
					return err
				}
			}
		}
	}
	if err := walk(raw, local); err != nil {
		return nil, err
	}
	return out, sc.end()
}

func TestXMLScanTokens(t *testing.T) {
	cases := []struct{ in, want string }{
		{`<a/>`, `<a> </a>`},
		{`<a x="1" y='2'/>`, `@x=1 @y=2 <a> </a>`},
		{"\uFEFF<?xml version=\"1.0\" encoding=\"utf-16\"?>\n<!-- c --><a>t</a><!-- d --><?pi x?>\n",
			`<a> t </a>`},
		{`<p:a xmlns:p="u" p:x="1"><p:b>t</p:b></p:a>`, `@p=u @x=1 <a> <b> t </b> </a>`},
		{`<a>x &lt; y &amp;&amp; z &gt; &quot;w&quot; &apos;v&apos;</a>`, `<a> x < y && z > "w" 'v' </a>`},
		{`<a>&#65;&#x42;&#x1F600;&#xD800;</a>`, "<a> AB\U0001F600\uFFFD </a>"},
		{`<a><![CDATA[<b> & ]] ]]></a>`, `<a> <b> & ]] </a>`},
		{"<a x=\"l1\r\nl2\rl3\">p\r\nq<![CDATA[r\r\ns]]></a>", "@x=l1\nl2\nl3 <a> p\nq r\ns </a>"},
		{`<a x="]]>&lt;"/>`, `@x=]]>< <a> </a>`},
		{`<:a a:="1"/>`, `@a:=1 <:a> </:a>`},
		{`<a>caf` + "\u00e9" + `</a>`, "<a> caf\u00e9 </a>"},
		{`<a >t</a >`, `<a> t </a>`},
		{"<\u00e9\u0301a/>", "<\u00e9\u0301a> </\u00e9\u0301a>"},
	}
	for _, tc := range cases {
		got, err := scanDocument(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%q:\n got %q\nwant %q", tc.in, g, tc.want)
		}
	}
}

func TestXMLScanRejects(t *testing.T) {
	for _, in := range []string{
		``, `   `, `text`, `<a>`, `<a></b>`, `<a><b></a></b>`, `</a>`, `<a/><b/>`, `<a/>text`,
		`<a></a><!-- x`, `<a><!-- x -- y --></a>`, `<a><!- x --></a>`, `<!DOCTYPE a><a/>`,
		`<a><!DOCTYPE b></a>`, `<a><![CDATA[x</a>`, `<a><![CDAT[x]]></a>`, `<?xml`, `<a><?></a>`,
		`<a x=1/>`, `<a x/>`, `<a x="1/>`, `<a x="<"/>`, `<a x="1"/ >`, `<1a/>`, `<-a/>`, `<a:b:c/>`,
		`< a/>`, `<a>&bogus;</a>`, `<a>&amp</a>`, `<a>&#;</a>`, `<a>&#xZ;</a>`, `<a>&#0;</a>`,
		`<a>&#xFFFE;</a>`, `<a>&#x110000;</a>`, `<a>&#99999999999;</a>`, `<a>]]></a>`,
		"<a>\x01</a>", "<a>\xff</a>", "<a x=\"\xc3\"/>", "<a>\uFFFE</a>", "<a\xc3\xa9\xff/>",
		"<\u0301a/>",
	} {
		if got, err := scanDocument(in); err == nil {
			t.Errorf("%q: accepted as %q", in, got)
		}
	}
}

// deepSQLServerChain is a showplan whose RelOps nest depth deep, each
// holding body before its child — with a simple element as the body, the
// shape that made the encoding/xml path quadratic (it re-tokenized every
// RelOp's inner XML at every level).
func deepSQLServerChain(depth int, body string) string {
	var b strings.Builder
	b.WriteString("<ShowPlanXML>")
	for i := 0; i < depth; i++ {
		b.WriteString(`<RelOp PhysicalOp="Nested Loops" LogicalOp="Inner Join" EstimateRows="1" EstimatedTotalSubtreeCost="0.5">`)
		b.WriteString(body)
	}
	b.WriteString(strings.Repeat("</RelOp>", depth))
	b.WriteString("</ShowPlanXML>")
	return b.String()
}

// TestSQLServerXMLDepthLinear pins the fix for the quadratic RelOp
// decode: doubling the nesting depth may at most ~double the work.
func TestSQLServerXMLDepthLinear(t *testing.T) {
	c := &sqlserverConverter{reg: SharedRegistry()}
	allocs := func(depth int) float64 {
		doc := deepSQLServerChain(depth, "<Predicate>c0 = 1</Predicate>")
		return testing.AllocsPerRun(3, func() {
			p, err := c.ConvertIn(doc, core.NewPlanArena())
			if err != nil {
				t.Fatal(err)
			}
			if n := p.NodeCount(); n != depth {
				t.Fatalf("depth %d: %d nodes", depth, n)
			}
		})
	}
	a1, a2 := allocs(1000), allocs(2000)
	if a2 > 2.5*a1 {
		t.Errorf("2,000-deep chain allocates %.0f times, 1,000-deep %.0f: not linear", a2, a1)
	}
}

// TestXMLDepthCap checks the nesting cap the XML scanner shares with
// the JSON reader, core.MaxNestingDepth: a document exactly that many
// elements deep converts, one more level is an error.
func TestXMLDepthCap(t *testing.T) {
	pgDoc := func(queries int) string {
		return "<explain>" + strings.Repeat("<Query>", queries) +
			"<Plan><Node-Type>Result</Node-Type></Plan>" + strings.Repeat("</Query>", queries) + "</explain>"
	}
	cases := []struct {
		dialect  string
		ok, deep string // MaxNestingDepth and MaxNestingDepth+1 elements deep
	}{
		// ShowPlanXML plus the RelOps.
		{"sqlserver", deepSQLServerChain(core.MaxNestingDepth-1, ""), deepSQLServerChain(core.MaxNestingDepth, "")},
		// explain, the Queries, Plan and Node-Type.
		{"postgresql", pgDoc(core.MaxNestingDepth - 3), pgDoc(core.MaxNestingDepth - 2)},
	}
	for _, tc := range cases {
		if _, err := Convert(tc.dialect, tc.ok); err != nil {
			t.Errorf("%s: %d-deep document: %v", tc.dialect, core.MaxNestingDepth, err)
		}
		if _, err := Convert(tc.dialect, tc.deep); err == nil || !strings.Contains(err.Error(), "max nesting depth") {
			t.Errorf("%s: %d-deep document: err = %v, want the nesting cap", tc.dialect, core.MaxNestingDepth+1, err)
		}
	}
}

// TestSQLServerXMLPropertyOrder pins the fix for the random property
// order: a RelOp's simple elements follow the document, so repeated
// conversions encode to identical bytes.
func TestSQLServerXMLPropertyOrder(t *testing.T) {
	const doc = `<ShowPlanXML><RelOp PhysicalOp="Sort" LogicalOp="Sort" EstimateRows="3">` +
		`<Predicate>c0 &gt; 1</Predicate><OutputList>c0, c1</OutputList><OrderBy>c1</OrderBy><OrderBy>c0</OrderBy>` +
		`<RelOp PhysicalOp="Table Scan"><Object Table="[t0]"/></RelOp></RelOp></ShowPlanXML>`
	var blob0, json0 []byte
	for i := 0; i < 50; i++ {
		p, err := Convert("sqlserver", doc)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := codec.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		js, err := p.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			blob0, json0 = blob, js
			var names []string
			for _, pr := range p.Root.Properties {
				names = append(names, pr.Name)
			}
			want := []string{"estimated rows", "logical operation"}
			for _, key := range []string{"Predicate", "OutputList", "OrderBy"} {
				name, _ := SharedRegistry().ResolveProperty("sqlserver", key)
				want = append(want, name)
			}
			if strings.Join(names, "|") != strings.Join(want, "|") {
				t.Fatalf("property order %q, want %q", names, want)
			}
			if v := p.Root.Properties[len(want)-1].Value; v.Str != "c0" {
				t.Errorf("repeated OrderBy = %v, want its last value c0", v)
			}
			continue
		}
		if !bytes.Equal(blob, blob0) || !bytes.Equal(js, json0) {
			t.Fatalf("conversion %d encodes differently from the first", i)
		}
	}
}

// BenchmarkConvertXML measures both XML converters through the cached
// one-shot path (pooled arena + detach) and into a reused arena.
func BenchmarkConvertXML(b *testing.B) {
	for _, dialect := range []string{"postgresql", "sqlserver"} {
		raw := xmlSample(b, dialect)
		c, err := Cached(dialect)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(dialect, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Convert(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(dialect+"/reuse", func(b *testing.B) {
			ar := core.NewPlanArena()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ConvertInto(dialect, raw, ar); err != nil {
					b.Fatal(err)
				}
				ar.Reset()
			}
		})
	}
}
