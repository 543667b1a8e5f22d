package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// This file retains the encoding/json paths the plan's JSON used before
// the appending encoder and JSONReader: the jsonPlan structs below, the
// marshal path that copies a plan into them with every value pre-encoded
// as a json.RawMessage, and the decoder that reads them back with
// json.Decoder and UseNumber, then decodes each property value a second
// time. They serve one purpose: they are the references the property
// tests compare AppendJSON and MarshalJSONIndent (jsonappend_test.go)
// and ParseJSON (jsonparse_test.go) against.

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

// ReferenceParseJSON is the reference decoding of data.
func ReferenceParseJSON(data []byte) (*Plan, error) {
	var jp jsonPlan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&jp); err != nil {
		return nil, fmt.Errorf("core: invalid unified plan JSON: %w", err)
	}
	props, err := propsFromJSON(jp.Properties)
	if err != nil {
		return nil, err
	}
	p := &Plan{Source: jp.Source, Properties: props}
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
	if p.Root, err = conv(jp.Tree); err != nil {
		return nil, err
	}
	return p, nil
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
		// text.
		return Str(string(raw)), nil
	}
}

// ReferenceMarshalJSON is the reference encoding of p.
func ReferenceMarshalJSON(p *Plan) ([]byte, error) {
	return json.Marshal(p.toJSON())
}

// ReferenceMarshalJSONIndent is the reference indented encoding of p.
func ReferenceMarshalJSONIndent(p *Plan) ([]byte, error) {
	return json.MarshalIndent(p.toJSON(), "", "  ")
}

func (p *Plan) toJSON() jsonPlan {
	jp := jsonPlan{Source: p.Source, Properties: propsToJSON(p.Properties)}
	var conv func(n *Node) *jsonNode
	conv = func(n *Node) *jsonNode {
		if n == nil {
			return nil
		}
		jn := &jsonNode{
			Operation:  jsonOperation{Category: string(n.Op.Category), Name: n.Op.Name},
			Properties: propsToJSON(n.Properties),
		}
		for _, c := range n.Children {
			jn.Children = append(jn.Children, conv(c))
		}
		return jn
	}
	jp.Tree = conv(p.Root)
	return jp
}

func propsToJSON(props []Property) []jsonProperty {
	if len(props) == 0 {
		return nil
	}
	out := make([]jsonProperty, 0, len(props))
	for _, pr := range props {
		out = append(out, jsonProperty{
			Category: string(pr.Category),
			Name:     pr.Name,
			Value:    valueToRaw(pr.Value),
		})
	}
	return out
}

// valueToRaw encodes a scalar Value as raw JSON. Strings go through
// json.Marshal for escaping; non-finite numbers become an empty raw
// message, which json.Marshal writes as null.
func valueToRaw(v Value) json.RawMessage {
	switch v.Kind {
	case KindString:
		raw, _ := json.Marshal(v.Str)
		return raw
	case KindNumber:
		if math.IsNaN(v.Num) || math.IsInf(v.Num, 0) {
			return nil
		}
		abs := math.Abs(v.Num)
		format := byte('f')
		if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b := strconv.AppendFloat(nil, v.Num, format, -1, 64)
		if format == 'e' {
			if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
				b[n-2] = b[n-1]
				b = b[:n-1]
			}
		}
		return b
	case KindBool:
		if v.Bool {
			return json.RawMessage("true")
		}
		return json.RawMessage("false")
	default:
		return json.RawMessage("null")
	}
}
