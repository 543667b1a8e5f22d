package core

import (
	"encoding/json"
	"math"
	"strconv"
)

// This file retains the encoding/json marshal path Plan.MarshalJSON used
// before the appending encoder: the plan is copied into the jsonPlan
// structs with every value pre-encoded as a json.RawMessage, and
// json.Marshal writes the result. It serves one purpose: it is the
// reference the encoder property tests (jsonenc_test.go) compare
// AppendJSON and MarshalJSONIndent against, byte for byte.

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
