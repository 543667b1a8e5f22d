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

// ParseJSON parses a unified plan from its JSON serialization (the schema
// above) in one pass through JSONReader. A string value stays a Str, an
// object or array value becomes a Str of its exact source text, and a
// number outside float64's range is an error. Unknown keys are ignored,
// and a null leaves its field as it was: a null child is a nil child, and
// a null property element is a zero property with a Null value. Four
// things differ from decoding the schema with encoding/json:
//
//   - keys match with exact case: {"Source": "x"} sets no source;
//   - anything but whitespace after the plan is an error;
//   - a repeated key's earlier value is read, then replaced: a repeated
//     "tree", "properties" or "children" does not merge into the earlier
//     one element by element, and a number out of range under a replaced
//     "value" is still an error;
//   - strings with invalid UTF-8 pass through unchanged instead of
//     becoming U+FFFD.
//
// Every error starts with "core: invalid unified plan JSON:".
func ParseJSON(data []byte) (*Plan, error) {
	p := &Plan{}
	if err := p.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalJSON implements json.Unmarshaler for Plan by ParseJSON's rules.
// The plan's strings share one copy of data.
func (p *Plan) UnmarshalJSON(data []byte) error {
	r := NewJSONReader(string(data), nil)
	var q Plan
	err := r.Object(func(key string) error {
		var err error
		switch key {
		case "source":
			return r.String(&q.Source)
		case "tree":
			q.Root, err = readJSONNode(&r)
			return err
		case "properties":
			q.Properties, err = readJSONProperties(&r)
			return err
		}
		return r.Skip()
	})
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return fmt.Errorf("core: invalid unified plan JSON: %w", err)
	}
	*p = q
	return nil
}

// readJSONNode reads one node and its subtree; null is a nil node.
func readJSONNode(r *JSONReader) (*Node, error) {
	if r.Null() {
		return nil, nil
	}
	n := &Node{}
	err := r.Object(func(key string) error {
		var err error
		switch key {
		case "operation":
			return r.Object(func(key string) error {
				switch key {
				case "category":
					return r.String((*string)(&n.Op.Category))
				case "name":
					return r.String(&n.Op.Name)
				}
				return r.Skip()
			})
		case "properties":
			n.Properties, err = readJSONProperties(r)
			return err
		case "children":
			n.Children = nil
			if r.Null() {
				return nil
			}
			return r.Array(func(int) error {
				c, err := readJSONNode(r)
				n.Children = append(n.Children, c)
				return err
			})
		}
		return r.Skip()
	})
	return n, err
}

// readJSONProperties reads a property list; null and [] are nil.
func readJSONProperties(r *JSONReader) ([]Property, error) {
	if r.Null() {
		return nil, nil
	}
	var props []Property
	err := r.Array(func(int) error {
		var pr Property
		err := r.Object(func(key string) error {
			var err error
			switch key {
			case "category":
				return r.String((*string)(&pr.Category))
			case "name":
				return r.String(&pr.Name)
			case "value":
				pr.Value, err = readJSONValue(r)
				return err
			}
			return r.Skip()
		})
		props = append(props, pr)
		return err
	})
	return props, err
}

// readJSONValue reads one property value.
func readJSONValue(r *JSONReader) (Value, error) {
	switch r.Peek() {
	case '"':
		var s string
		err := r.String(&s)
		return Str(s), err
	case '{', '[':
		raw, err := r.Raw()
		return Str(raw), err
	case 't', 'f':
		b, err := r.Bool()
		return BoolVal(b), err
	}
	if r.Null() {
		return Null(), nil
	}
	lit, err := r.Number()
	if err != nil {
		return Null(), err
	}
	f, err := strconv.ParseFloat(lit, 64)
	return Num(f), err
}
