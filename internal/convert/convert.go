// Package convert implements UPlan's converters: parsers that turn a
// DBMS-native *serialized* query plan (the text/table/JSON/XML strings a
// real system prints for EXPLAIN) into the unified query plan
// representation of internal/core. One converter exists per studied DBMS,
// mirroring the paper's five ~200-line converters and extending them to
// all nine systems.
package convert

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"uplan/internal/core"
)

// Converter parses serialized plans of one dialect. Every converter's
// construction path is arena-native: ConvertIn builds the plan's nodes,
// property lists, and child lists inside the caller-supplied arena (see
// core.PlanArena for the ownership rules — the plan aliases the arena
// until Plan.Clone detaches it), and a nil arena builds a plain heap
// plan. Convert is ConvertIn into a pooled arena plus a Clone detach, so
// the one-shot path batches its allocations too.
type Converter interface {
	// Dialect returns the engine key ("postgresql", …).
	Dialect() string
	// Convert parses a serialized plan, auto-detecting among the
	// dialect's supported formats.
	Convert(serialized string) (*core.Plan, error)
	// ConvertIn parses a serialized plan into ar.
	ConvertIn(serialized string, ar *core.PlanArena) (*core.Plan, error)
}

// ConvertInto parses a serialized plan into the caller-supplied arena
// through the process-wide cached converter for the dialect. The returned
// plan aliases the arena: it stays valid until the arena is Reset, and
// must be detached with Plan.Clone if it needs to outlive that. A nil
// arena behaves like Cached(dialect).Convert.
func ConvertInto(dialect, serialized string, ar *core.PlanArena) (*core.Plan, error) {
	c, err := Cached(dialect)
	if err != nil {
		return nil, err
	}
	if ar == nil {
		return convertPooled(c, serialized)
	}
	return c.ConvertIn(serialized, ar)
}

// arenaPool recycles plan arenas for every converting caller: the
// one-shot Convert path, the batch pipeline's workers, and the service's
// single-plan handlers. Pooled arenas keep their grown slabs (and intern
// tables) across conversions; the pool releases them under GC pressure
// like any sync.Pool.
var arenaPool = sync.Pool{New: func() any { return core.NewPlanArena() }}

// BorrowArena takes an arena from the shared pool. The caller owns it
// until ReturnArena; plans built in it must be detached with Plan.Clone
// before they outlive that call.
func BorrowArena() *core.PlanArena { return arenaPool.Get().(*core.PlanArena) }

// ReturnArena resets ar and puts it back in the shared pool. Every plan
// still aliasing ar is invalid afterwards.
func ReturnArena(ar *core.PlanArena) {
	ar.Reset()
	arenaPool.Put(ar)
}

// convertPooled is the shared implementation of the converters' one-shot
// Convert methods: ConvertIn into a borrowed arena, detach, return.
//
//uplan:hotpath
func convertPooled(c Converter, serialized string) (*core.Plan, error) {
	ar := BorrowArena()
	p, err := c.ConvertIn(serialized, ar)
	if p != nil {
		p = p.Clone() // detach before the arena is reused
	}
	ReturnArena(ar)
	return p, err
}

// registry of converters, keyed by dialect.
var converters = map[string]func(reg *core.Registry) Converter{
	"postgresql": func(r *core.Registry) Converter { return &postgresConverter{reg: r} },
	"mysql":      func(r *core.Registry) Converter { return &mysqlConverter{reg: r} },
	"tidb":       func(r *core.Registry) Converter { return &tidbConverter{reg: r} },
	"sqlite":     func(r *core.Registry) Converter { return &sqliteConverter{reg: r} },
	"mongodb":    func(r *core.Registry) Converter { return &mongoConverter{reg: r} },
	"neo4j":      func(r *core.Registry) Converter { return &neo4jConverter{reg: r} },
	"sparksql":   func(r *core.Registry) Converter { return &sparkConverter{reg: r} },
	"sqlserver":  func(r *core.Registry) Converter { return &sqlserverConverter{reg: r} },
	"influxdb":   func(r *core.Registry) Converter { return &influxConverter{reg: r} },
}

// For returns the converter for a dialect, backed by the given registry
// (nil uses the default registry).
func For(dialect string, reg *core.Registry) (Converter, error) {
	if reg == nil {
		reg = core.DefaultRegistry()
	}
	mk, ok := converters[strings.ToLower(dialect)]
	if !ok {
		return nil, fmt.Errorf("convert: no converter for dialect %q", dialect)
	}
	return mk(reg), nil
}

// Dialects lists the supported dialect keys in sorted order.
func Dialects() []string {
	out := make([]string, 0, len(converters))
	for k := range converters {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Convert is a convenience wrapper: one-shot conversion with the default
// registry. It builds a fresh registry and converter per call; hot paths
// should use Cached (single plans) or internal/pipeline (batches).
func Convert(dialect, serialized string) (*core.Plan, error) {
	c, err := For(dialect, nil)
	if err != nil {
		return nil, err
	}
	return c.Convert(serialized)
}

// ----------------------------------------------------- cached converters

var (
	sharedRegOnce sync.Once
	sharedReg     *core.Registry

	cacheMu sync.RWMutex
	cache   = map[string]Converter{}
)

// SharedRegistry returns the lazily-built process-wide default registry
// backing the Cached converters. Extending it (AddOperation,
// AliasOperation, …) immediately affects every cached converter; callers
// needing isolation should pair For with their own registry instead.
func SharedRegistry() *core.Registry {
	sharedRegOnce.Do(func() { sharedReg = core.DefaultRegistry() })
	return sharedReg
}

// Cached returns the process-wide shared converter for a dialect, backed
// by SharedRegistry. Converters hold no per-conversion state and the
// registry resolves names from an immutable lock-free snapshot, so the
// returned converter is safe for concurrent use and scales across worker
// goroutines without serializing on a registry lock. This is the fast
// path behind the uplan facade: it avoids rebuilding the default registry
// on every conversion.
func Cached(dialect string) (Converter, error) {
	key := strings.ToLower(dialect)
	cacheMu.RLock()
	c, ok := cache[key]
	cacheMu.RUnlock()
	if ok {
		return c, nil
	}
	c, err := For(key, SharedRegistry())
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	if prior, ok := cache[key]; ok {
		c = prior // another goroutine won the build race; share its converter
	} else {
		cache[key] = c
	}
	cacheMu.Unlock()
	return c, nil
}

// ------------------------------------------------------------ shared bits

// parseScalar converts a property value string to a core.Value, detecting
// numbers and booleans.
//
//uplan:hotpath
func parseScalar(s string) core.Value {
	t := strings.TrimSpace(s)
	switch t {
	case "":
		return core.Null()
	case "true", "TRUE", "True":
		return core.BoolVal(true)
	case "false", "FALSE", "False":
		return core.BoolVal(false)
	case "null", "NULL":
		return core.Null()
	}
	if looksNumeric(t) {
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			return core.Num(f)
		}
	}
	return core.Str(t)
}

// looksNumeric admits only the decimal grammar: digits, a sign, '.',
// and 'e' or 'E'. Converters produce finite numbers only, so NaN, Inf,
// Infinity, hex floats and underscore literals stay strings, which every
// serialization of a plan (canonical text, JSON, codec) carries alike; an
// overflow such as 1e999 stays a string too, because ParseFloat rejects
// it. The filter also keeps ParseFloat off most property values, which
// are not numbers: its syntax error allocates, and that construction
// alone was ~13% of the batch path's allocations.
//
//uplan:hotpath
func looksNumeric(t string) bool {
	if len(t) == 0 || t[0] == 'e' || t[0] == 'E' {
		return false
	}
	for i := 0; i < len(t); i++ {
		switch c := t[i]; {
		case c >= '0' && c <= '9':
		case c == '+' || c == '-' || c == '.' || c == 'e' || c == 'E':
		default:
			return false
		}
	}
	return true
}

// addProp appends a property to n, allocating from ar when non-nil. Every
// converted property goes through addProp or addPlanProp, so the registry
// alone gives it its unified name and category. key is the property's
// native name where the format has one (a JSON key, an XML element or
// attribute, a table column header), otherwise the name the converter
// reads it under, such as the "rows" of PostgreSQL's cost annotation. A
// property whose name resolves blank is dropped, since the unified
// grammar has no unnamed property; addProp reports whether it was added.
func addProp(reg *core.Registry, dialect string, ar *core.PlanArena, n *core.Node, key string, v core.Value) bool {
	name, cat := reg.ResolveProperty(dialect, key)
	if name == "" {
		return false
	}
	ar.AddPropertyIn(n, cat, name, v)
	return true
}

// addPlanProp is addProp for a plan-level property.
func addPlanProp(reg *core.Registry, dialect string, ar *core.PlanArena, p *core.Plan, key string, v core.Value) bool {
	name, cat := reg.ResolveProperty(dialect, key)
	if name == "" {
		return false
	}
	ar.AddPlanPropertyIn(p, cat, name, v)
	return true
}

// indentDepth counts leading spaces.
func indentDepth(s string) int {
	n := 0
	for n < len(s) && s[n] == ' ' {
		n++
	}
	return n
}

// stripOperatorSuffix removes TiDB-style unstable "_NN" suffixes and
// returns the base name plus the suffix (empty when none).
func stripOperatorSuffix(id string) (string, string) {
	i := strings.LastIndexByte(id, '_')
	if i < 0 {
		return id, ""
	}
	suffix := id[i+1:]
	if suffix == "" {
		return id, ""
	}
	for _, r := range suffix {
		if r < '0' || r > '9' {
			return id, ""
		}
	}
	return id[:i], suffix
}
