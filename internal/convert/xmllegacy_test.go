package convert

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"slices"
	"strings"

	"uplan/internal/core"
)

// This file keeps the encoding/xml decoders the PostgreSQL and SQL Server
// XML converters used before the xmlScan port. They serve one purpose:
// LegacyConvertXML is the reference implementation the differential test
// (TestXMLScannerMatchesLegacyPath) compares the scanner against. Their
// one change from the originals is the SQL Server property order fix: a
// RelOp's simple child elements come in document order, a repeated
// element keeping its first place and its last value, where the
// original ranged over a map.

// LegacyConvertXML converts a PostgreSQL or SQL Server XML plan through
// the reference decoders, building a heap plan; any other input goes
// through LegacyConvert.
func LegacyConvertXML(dialect, serialized string) (*core.Plan, error) {
	conv, err := Cached(dialect)
	if err != nil {
		return nil, err
	}
	switch c := conv.(type) {
	case *postgresConverter:
		if strings.HasPrefix(strings.TrimSpace(serialized), "<explain") {
			return c.legacyXML(serialized)
		}
	case *sqlserverConverter:
		if strings.Contains(serialized, "<ShowPlanXML") {
			return c.legacyXML(serialized)
		}
	}
	return LegacyConvert(dialect, serialized)
}

// -------------------------------------------------------- PostgreSQL (XML)

func (c *postgresConverter) legacyXML(s string) (*core.Plan, error) {
	type xmlPlan struct {
		XMLName  xml.Name
		Children []xmlPlan `xml:",any"`
		Text     string    `xml:",chardata"`
	}
	var doc xmlPlan
	if err := xml.Unmarshal([]byte(s), &doc); err != nil {
		return nil, fmt.Errorf("convert: postgres xml: %w", err)
	}
	plan := &core.Plan{Source: "postgresql"}
	var buildNode func(el xmlPlan) *core.Node
	buildNode = func(el xmlPlan) *core.Node {
		node := &core.Node{}
		for _, ch := range el.Children {
			tag := strings.ReplaceAll(ch.XMLName.Local, "-", " ")
			val := strings.TrimSpace(ch.Text)
			switch ch.XMLName.Local {
			case "Node-Type":
				node.Op = c.reg.ResolveOperation("postgresql", val)
			case "Plans":
				for _, sub := range ch.Children {
					if sub.XMLName.Local == "Plan" {
						node.AddChild(buildNode(sub))
					}
				}
			case "Startup-Cost":
				heapArena.AddPropertyIn(node, core.Cost, "startup cost", parseScalar(val))
			case "Total-Cost":
				heapArena.AddPropertyIn(node, core.Cost, "total cost", parseScalar(val))
			case "Rows":
				heapArena.AddPropertyIn(node, core.Cardinality, "estimated rows", parseScalar(val))
			case "Width":
				heapArena.AddPropertyIn(node, core.Cardinality, "estimated width", parseScalar(val))
			case "Relation-Name":
				heapArena.AddPropertyIn(node, core.Configuration, "name object", parseScalar(val))
			default:
				name, cat := c.reg.ResolveProperty("postgresql", tag)
				heapArena.AddPropertyIn(node, cat, name, parseScalar(val))
			}
		}
		return node
	}
	var findQuery func(el xmlPlan)
	findQuery = func(el xmlPlan) {
		for _, ch := range el.Children {
			switch ch.XMLName.Local {
			case "Plan":
				plan.Root = buildNode(ch)
			case "Query":
				findQuery(ch)
			default:
				val := strings.TrimSpace(ch.Text)
				if val != "" && len(ch.Children) == 0 {
					tag := strings.ReplaceAll(ch.XMLName.Local, "-", " ")
					name, cat := c.reg.ResolveProperty("postgresql", tag)
					heapArena.AddPlanPropertyIn(plan, cat, name, parseScalar(strings.TrimSuffix(val, " ms")))
				}
			}
		}
	}
	findQuery(doc)
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: postgres xml: no Plan element")
	}
	return plan, nil
}

// -------------------------------------------------------- SQL Server (XML)

type ssRelOp struct {
	PhysicalOp    string    `xml:"PhysicalOp,attr"`
	LogicalOp     string    `xml:"LogicalOp,attr"`
	EstimateRows  string    `xml:"EstimateRows,attr"`
	EstimatedCost string    `xml:"EstimatedTotalSubtreeCost,attr"`
	Children      []ssRelOp `xml:"RelOp"`
	Object        ssObject  `xml:"Object"`
	InnerXML      []byte    `xml:",innerxml"`
}

type ssObject struct {
	Table string `xml:"Table,attr"`
}

func (c *sqlserverConverter) legacyXML(s string) (*core.Plan, error) {
	// Locate the top RelOp elements inside the document.
	dec := xml.NewDecoder(strings.NewReader(s))
	plan := &core.Plan{Source: "sqlserver"}
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		if se, ok := tok.(xml.StartElement); ok && se.Name.Local == "RelOp" {
			var rel ssRelOp
			if err := dec.DecodeElement(&rel, &se); err != nil {
				return nil, fmt.Errorf("convert: sqlserver xml: %w", err)
			}
			plan.Root = c.legacyRelOpNode(rel)
			break
		}
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: sqlserver xml: no RelOp element")
	}
	return plan, nil
}

func (c *sqlserverConverter) legacyRelOpNode(rel ssRelOp) *core.Node {
	op := c.reg.ResolveOperation("sqlserver", rel.PhysicalOp)
	node := &core.Node{Op: op}
	if rel.EstimateRows != "" {
		name, cat := c.reg.ResolveProperty("sqlserver", "EstimateRows")
		heapArena.AddPropertyIn(node, cat, name, parseScalar(rel.EstimateRows))
	}
	if rel.EstimatedCost != "" {
		name, cat := c.reg.ResolveProperty("sqlserver", "EstimatedTotalSubtreeCost")
		heapArena.AddPropertyIn(node, cat, name, parseScalar(rel.EstimatedCost))
	}
	if rel.LogicalOp != "" {
		heapArena.AddPropertyIn(node, core.Configuration, "logical operation", core.Str(rel.LogicalOp))
	}
	if rel.Object.Table != "" {
		heapArena.AddPropertyIn(node, core.Configuration, "name object",
			core.Str(strings.Trim(rel.Object.Table, "[]")))
	}
	// Extract simple child elements (e.g. <Predicate>…</Predicate>) from
	// the inner XML, skipping nested RelOps which are handled structurally.
	for _, el := range legacySimpleXMLElements(rel.InnerXML) {
		name, cat := c.reg.ResolveProperty("sqlserver", el.key)
		heapArena.AddPropertyIn(node, cat, name, parseScalar(el.val))
	}
	for _, child := range rel.Children {
		node.AddChild(c.legacyRelOpNode(child))
	}
	return node
}

// legacySimpleXMLElements extracts top-level scalar elements from an XML
// fragment, skipping RelOp and Object subtrees.
func legacySimpleXMLElements(fragment []byte) []ssElement {
	var out []ssElement
	dec := xml.NewDecoder(bytes.NewReader(fragment))
	depth := 0
	current := ""
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if depth == 1 {
				if t.Name.Local == "RelOp" || t.Name.Local == "Object" {
					if err := dec.Skip(); err != nil {
						return out
					}
					depth--
					continue
				}
				current = t.Name.Local
				text.Reset()
			}
		case xml.CharData:
			if depth == 1 && current != "" {
				text.Write(t)
			}
		case xml.EndElement:
			if depth == 1 && current != "" {
				val := strings.TrimSpace(text.String())
				if i := slices.IndexFunc(out, func(e ssElement) bool { return e.key == current }); i >= 0 {
					out[i].val = val
				} else {
					out = append(out, ssElement{current, val})
				}
				current = ""
			}
			depth--
		}
	}
	return out
}
