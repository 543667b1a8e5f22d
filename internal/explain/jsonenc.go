package explain

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"uplan/internal/jsonenc"
)

// marshalJSON renders a JSON serializer's document exactly as
// json.MarshalIndent(doc, "", "  ") renders it, without reflection, for
// the shapes the serializers build: map[string]any (keys sorted), []any,
// string, float64, int, int64, bool, nil and TiDB's operator structs.
// Any other value, and a NaN or infinite float, is handed to
// json.MarshalIndent at its nesting depth, so it encodes, or fails, with
// encoding/json's bytes and error text.
//
//uplan:hotpath
func marshalJSON(doc any) (string, error) {
	e := jsonEncoders.Get().(*jsonEncoder)
	defer e.release()
	if err := e.value(doc, 0); err != nil {
		return "", err
	}
	return string(e.buf), nil
}

// jsonEncoders recycles encoder buffers across documents.
var jsonEncoders = sync.Pool{New: func() any { return &jsonEncoder{} }}

func (e *jsonEncoder) release() {
	if cap(e.buf) > 1<<16 {
		return // let an outsized buffer go rather than pin it
	}
	e.buf, e.keys = e.buf[:0], e.keys[:0]
	jsonEncoders.Put(e)
}

type jsonEncoder struct {
	buf []byte
	// keys is a stack of map keys: each map sorts its own keys in a
	// segment on top and pops it when done.
	keys []string
}

func (e *jsonEncoder) value(v any, depth int) error {
	switch t := v.(type) {
	case nil:
		e.buf = append(e.buf, "null"...)
	case string:
		e.buf = jsonenc.AppendString(e.buf, t)
	case bool:
		e.buf = strconv.AppendBool(e.buf, t)
	case int:
		e.buf = strconv.AppendInt(e.buf, int64(t), 10)
	case int64:
		e.buf = strconv.AppendInt(e.buf, t, 10)
	case float64:
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return e.fallback(v, depth)
		}
		e.buf = jsonenc.AppendFloat(e.buf, t)
	case []any:
		if t == nil {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		e.buf = append(e.buf, '[')
		for i, x := range t {
			e.member(i, depth+1)
			if err := e.value(x, depth+1); err != nil {
				return err
			}
		}
		e.close(len(t), depth, ']')
	case map[string]any:
		if t == nil {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		start := len(e.keys)
		for k := range t {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys[start:])
		e.buf = append(e.buf, '{')
		for i := range len(t) {
			k := e.keys[start+i]
			if err := e.field(i, k, t[k], depth); err != nil {
				return err
			}
		}
		e.keys = e.keys[:start]
		e.close(len(t), depth, '}')
	case []tidbJSONNode:
		e.tidbNodes(t, depth)
	default:
		return e.fallback(v, depth)
	}
	return nil
}

// member starts the i-th element of a container on its own line.
func (e *jsonEncoder) member(i, depth int) {
	if i > 0 {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, '\n')
	for range depth {
		e.buf = append(e.buf, ' ', ' ')
	}
}

func (e *jsonEncoder) field(i int, key string, val any, depth int) error {
	e.member(i, depth+1)
	e.buf = jsonenc.AppendString(e.buf, key)
	e.buf = append(e.buf, ':', ' ')
	return e.value(val, depth+1)
}

// close ends a container of n members; an empty one stays "[]" or "{}".
func (e *jsonEncoder) close(n, depth int, c byte) {
	if n > 0 {
		e.member(0, depth)
	}
	e.buf = append(e.buf, c)
}

func (e *jsonEncoder) tidbNodes(nodes []tidbJSONNode, depth int) {
	if nodes == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i := range nodes {
		e.member(i, depth+1)
		e.tidbNode(&nodes[i], depth+1)
	}
	e.close(len(nodes), depth, ']')
}

// tidbNode writes TiDB's operator as encoding/json writes the struct:
// fields in declaration order under their tag names, the omitempty ones
// left out when empty.
func (e *jsonEncoder) tidbNode(n *tidbJSONNode, depth int) {
	e.buf = append(e.buf, '{')
	fields := 0
	for _, f := range [...]struct {
		key, val  string
		omitEmpty bool
	}{
		{"id", n.ID, false}, {"estRows", n.EstRows, false}, {"actRows", n.ActRows, true},
		{"taskType", n.TaskType, false}, {"accessObject", n.AccessObject, true},
		{"operatorInfo", n.OperatorInfo, true},
	} {
		if f.omitEmpty && f.val == "" {
			continue
		}
		e.member(fields, depth+1)
		e.buf = jsonenc.AppendString(e.buf, f.key)
		e.buf = append(e.buf, ':', ' ')
		e.buf = jsonenc.AppendString(e.buf, f.val)
		fields++
	}
	if len(n.SubOperators) > 0 {
		e.member(fields, depth+1)
		e.buf = append(e.buf, `"subOperators": `...)
		e.tidbNodes(n.SubOperators, depth+1)
		fields++
	}
	e.close(fields, depth, '}')
}

func (e *jsonEncoder) fallback(v any, depth int) error {
	data, err := json.MarshalIndent(v, strings.Repeat("  ", depth), "  ")
	if err != nil {
		return err
	}
	e.buf = append(e.buf, data...)
	return nil
}
