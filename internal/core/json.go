package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"uplan/internal/jsonenc"
)

// This file implements the structured JSON format of the unified query plan
// representation. The schema mirrors the EBNF directly:
//
//	{
//	  "source": "postgresql",
//	  "tree": {
//	    "operation": {"category": "Producer", "name": "Full Table Scan"},
//	    "properties": [
//	      {"category": "Cardinality", "name": "rows", "value": 1050}
//	    ],
//	    "children": [ ... ]
//	  },
//	  "properties": [
//	    {"category": "Status", "name": "planning_time", "value": 0.124}
//	  ]
//	}
//
// Unknown JSON fields are ignored on decode (forward compatibility);
// the "tree" field is optional (InfluxDB-style property-only plans).

type jsonPlan struct {
	Source     string         `json:"source,omitempty"`
	Tree       *jsonNode      `json:"tree,omitempty"`
	Properties []jsonProperty `json:"properties,omitempty"`
}

type jsonNode struct {
	Operation  jsonOperation  `json:"operation"`
	Properties []jsonProperty `json:"properties,omitempty"`
	Children   []*jsonNode    `json:"children,omitempty"`
}

type jsonOperation struct {
	Category string `json:"category"`
	Name     string `json:"name"`
}

type jsonProperty struct {
	Category string          `json:"category"`
	Name     string          `json:"name"`
	Value    json.RawMessage `json:"value"`
}

// MarshalJSON implements json.Marshaler for Plan: the plan's canonical
// JSON, as AppendJSON writes it, built in a pooled buffer and returned as
// an exact-size copy.
func (p *Plan) MarshalJSON() ([]byte, error) {
	b := textBufPool.Get().(*bytes.Buffer)
	b.Reset()
	b.Write(p.AppendJSON(b.AvailableBuffer()))
	out := bytes.Clone(b.Bytes())
	textBufPool.Put(b)
	return out, nil
}

// MarshalJSONIndent renders the plan as indented JSON: AppendJSON's bytes
// under json.Indent, which is what json.MarshalIndent would produce.
func (p *Plan) MarshalJSONIndent() ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, p.AppendJSON(nil), "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// AppendJSON appends the plan's canonical JSON to dst and returns the
// extended buffer. The bytes are exactly what json.Marshal writes for the
// schema above: keys in schema order, empty source, tree and property
// lists left out, a nil child written as null, strings quoted with
// encoding/json's HTML escaping (invalid UTF-8 becomes U+FFFD, U+2028 and
// U+2029 are escaped), and a NaN or infinite number written as null. It
// walks the plan once and allocates nothing beyond dst's growth.
//
//uplan:hotpath
func (p *Plan) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	n0 := len(dst)
	if p.Source != "" {
		dst = append(dst, `"source":`...)
		dst = jsonenc.AppendString(dst, p.Source)
	}
	if p.Root != nil {
		if len(dst) > n0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"tree":`...)
		dst = appendJSONNode(dst, p.Root)
	}
	if len(p.Properties) > 0 {
		if len(dst) > n0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"properties":`...)
		dst = appendJSONProperties(dst, p.Properties)
	}
	return append(dst, '}')
}

// appendJSONNode appends one node and its subtree; a nil node is null.
func appendJSONNode(dst []byte, n *Node) []byte {
	if n == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"operation":{"category":`...)
	dst = jsonenc.AppendString(dst, string(n.Op.Category))
	dst = append(dst, `,"name":`...)
	dst = jsonenc.AppendString(dst, n.Op.Name)
	dst = append(dst, '}')
	if len(n.Properties) > 0 {
		dst = append(dst, `,"properties":`...)
		dst = appendJSONProperties(dst, n.Properties)
	}
	if len(n.Children) > 0 {
		dst = append(dst, `,"children":[`...)
		for i, c := range n.Children {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONNode(dst, c)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendJSONProperties appends a non-empty property list.
func appendJSONProperties(dst []byte, props []Property) []byte {
	dst = append(dst, '[')
	for i := range props {
		pr := &props[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"category":`...)
		dst = jsonenc.AppendString(dst, string(pr.Category))
		dst = append(dst, `,"name":`...)
		dst = jsonenc.AppendString(dst, pr.Name)
		dst = append(dst, `,"value":`...)
		dst = appendJSONValue(dst, pr.Value)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendJSONValue appends one scalar. A NaN or infinite number has no
// JSON form and is written as null, which decodes back as Null.
func appendJSONValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindString:
		return jsonenc.AppendString(dst, v.Str)
	case KindNumber:
		if math.IsNaN(v.Num) || math.IsInf(v.Num, 0) {
			return append(dst, "null"...)
		}
		return jsonenc.AppendFloat(dst, v.Num)
	case KindBool:
		return strconv.AppendBool(dst, v.Bool)
	default:
		return append(dst, "null"...)
	}
}

// UnmarshalJSON implements json.Unmarshaler for Plan.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var jp jsonPlan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&jp); err != nil {
		return fmt.Errorf("core: invalid unified plan JSON: %w", err)
	}
	props, err := propsFromJSON(jp.Properties)
	if err != nil {
		return err
	}
	p.Source = jp.Source
	p.Properties = props
	var conv func(jn *jsonNode) (*Node, error)
	conv = func(jn *jsonNode) (*Node, error) {
		if jn == nil {
			return nil, nil
		}
		props, err := propsFromJSON(jn.Properties)
		if err != nil {
			return nil, err
		}
		n := &Node{
			Op: Operation{
				Category: OperationCategory(jn.Operation.Category),
				Name:     jn.Operation.Name,
			},
			Properties: props,
		}
		for _, jc := range jn.Children {
			c, err := conv(jc)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, c)
		}
		return n, nil
	}
	root, err := conv(jp.Tree)
	if err != nil {
		return err
	}
	p.Root = root
	return nil
}

func propsFromJSON(jprops []jsonProperty) ([]Property, error) {
	var out []Property
	for _, jp := range jprops {
		v, err := valueFromRaw(jp.Value)
		if err != nil {
			return nil, fmt.Errorf("core: property %q: %w", jp.Name, err)
		}
		out = append(out, Property{
			Category: PropertyCategory(jp.Category),
			Name:     jp.Name,
			Value:    v,
		})
	}
	return out, nil
}

func valueFromRaw(raw json.RawMessage) (Value, error) {
	if len(raw) == 0 {
		return Null(), nil
	}
	var any interface{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&any); err != nil {
		return Value{}, err
	}
	switch t := any.(type) {
	case nil:
		return Null(), nil
	case string:
		return Str(t), nil
	case bool:
		return BoolVal(t), nil
	case json.Number:
		f, err := t.Float64()
		if err != nil {
			return Value{}, err
		}
		return Num(f), nil
	default:
		// Composite values (arrays/objects) are flattened to their JSON
		// text; the grammar only supports scalars, but tolerating composites
		// keeps converters for exotic plans lossless.
		return Str(string(raw)), nil
	}
}

// ParseJSON parses a unified plan from its JSON serialization.
func ParseJSON(data []byte) (*Plan, error) {
	p := &Plan{}
	if err := p.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return p, nil
}
