package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// Registry implements the unified naming convention of Section IV-A: it maps
// DBMS-specific operation and property names to unified names and
// categories, and records which names a given grammar version knows. The
// registry is runtime-extensible — adding a keyword for a new operation
// (the paper's "LLM Join" example) is a single AddOperation call and keeps
// both forward and backward compatibility for applications.
//
// A Registry is safe for concurrent use. Writers serialize on a mutex and
// publish an immutable resolution snapshot through an atomic pointer;
// ResolveOperation and ResolveProperty — the conversion hot path — read
// only that snapshot, so they are lock-free and allocation-free on every
// alias and unified-name hit.
type Registry struct {
	mu      sync.Mutex
	version int
	// shared marks base maps borrowed from the DefaultRegistry template;
	// the first mutation copies them (copy-on-write), so cloning the large
	// default vocabulary costs a few pointer copies, not hundreds of
	// inserts.
	shared     bool
	operations map[string]OperationDef // unified name → definition
	properties map[string]PropertyDef  // unified name → definition
	// aliases index DBMS-specific names: dialect → lower(native name) →
	// unified name.
	opAliases   map[string]map[string]string
	propAliases map[string]map[string]string

	// snap is the immutable resolution index rebuilt by writers. Readers
	// load it once per resolution and never touch the base maps.
	snap atomic.Pointer[snapshot]
}

// snapshot is the immutable, pre-case-folded resolution index. Per-dialect
// maps merge the dialect's aliases over the unified vocabulary (aliases
// win), so one map probe answers what previously took an alias lookup plus
// an O(vocabulary) EqualFold scan. All keys are lower-case; values are
// interned once at build time.
type snapshot struct {
	version int
	// opIndex: dialect → folded name → operation (aliases ∪ unified names).
	opIndex map[string]map[string]Operation
	// opGlobal: folded unified name → operation, for dialects without
	// registered aliases.
	opGlobal map[string]Operation

	propIndex  map[string]map[string]propEntry
	propGlobal map[string]propEntry
}

// propEntry is an interned resolved property: unified name plus category.
type propEntry struct {
	name string
	cat  PropertyCategory
}

// OperationDef describes a unified operation keyword.
type OperationDef struct {
	Name     string
	Category OperationCategory
	// Doc is a one-line description used by visualization tools.
	Doc string
	// SinceVersion is the registry version that introduced the keyword.
	SinceVersion int
}

// PropertyDef describes a unified property keyword.
type PropertyDef struct {
	Name         string
	Category     PropertyCategory
	Doc          string
	SinceVersion int
}

// NewRegistry returns an empty registry at version 1.
func NewRegistry() *Registry {
	r := &Registry{
		version:     1,
		operations:  map[string]OperationDef{},
		properties:  map[string]PropertyDef{},
		opAliases:   map[string]map[string]string{},
		propAliases: map[string]map[string]string{},
	}
	r.snap.Store(r.buildSnapshot())
	return r
}

// Version returns the current grammar version. The version increments every
// time a keyword is added or removed, modeling the forward/backward
// compatibility discussion of Section IV-B.
func (r *Registry) Version() int {
	return r.snap.Load().version
}

// ensureOwned copies base maps borrowed from the DefaultRegistry template
// before the first mutation. Callers must hold r.mu.
func (r *Registry) ensureOwned() {
	if !r.shared {
		return
	}
	r.shared = false
	r.operations = maps.Clone(r.operations)
	r.properties = maps.Clone(r.properties)
	opAliases := make(map[string]map[string]string, len(r.opAliases))
	for d, m := range r.opAliases {
		opAliases[d] = maps.Clone(m)
	}
	r.opAliases = opAliases
	propAliases := make(map[string]map[string]string, len(r.propAliases))
	for d, m := range r.propAliases {
		propAliases[d] = maps.Clone(m)
	}
	r.propAliases = propAliases
}

// publish rebuilds and atomically installs the resolution snapshot.
// Callers must hold r.mu. Readers keep using the prior snapshot until the
// store; they observe either the old or the new index, never a torn one.
func (r *Registry) publish() {
	r.snap.Store(r.buildSnapshot())
}

func (r *Registry) buildSnapshot() *snapshot {
	s := &snapshot{
		version:    r.version,
		opGlobal:   make(map[string]Operation, len(r.operations)),
		propGlobal: make(map[string]propEntry, len(r.properties)),
		opIndex:    make(map[string]map[string]Operation, len(r.opAliases)),
		propIndex:  make(map[string]map[string]propEntry, len(r.propAliases)),
	}
	for name, def := range r.operations {
		s.opGlobal[strings.ToLower(name)] = Operation{Category: def.Category, Name: def.Name}
	}
	for dialect, aliases := range r.opAliases {
		m := make(map[string]Operation, len(s.opGlobal)+len(aliases))
		maps.Copy(m, s.opGlobal)
		for native, unified := range aliases {
			if def, ok := r.operations[unified]; ok {
				m[native] = Operation{Category: def.Category, Name: def.Name}
			}
		}
		s.opIndex[dialect] = m
	}
	for name, def := range r.properties {
		s.propGlobal[strings.ToLower(name)] = propEntry{name: def.Name, cat: def.Category}
	}
	for dialect, aliases := range r.propAliases {
		m := make(map[string]propEntry, len(s.propGlobal)+len(aliases))
		maps.Copy(m, s.propGlobal)
		for native, unified := range aliases {
			if def, ok := r.properties[unified]; ok {
				m[native] = propEntry{name: def.Name, cat: def.Category}
			}
		}
		s.propIndex[dialect] = m
	}
	return s
}

// AddOperation registers a unified operation keyword. Re-registering an
// existing name updates its category and documentation.
func (r *Registry) AddOperation(name string, cat OperationCategory, doc string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureOwned()
	r.addOperationLocked(name, cat, doc)
	r.publish()
}

func (r *Registry) addOperationLocked(name string, cat OperationCategory, doc string) {
	r.version++
	def, ok := r.operations[name]
	if !ok {
		def = OperationDef{Name: name, SinceVersion: r.version}
	}
	def.Category = cat
	def.Doc = doc
	r.operations[name] = def
}

// RemoveOperation deletes a unified operation keyword and all its aliases.
// It reports whether the keyword existed.
func (r *Registry) RemoveOperation(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.operations[name]; !ok {
		return false
	}
	r.ensureOwned()
	r.version++
	delete(r.operations, name)
	for _, m := range r.opAliases {
		for alias, unified := range m {
			if unified == name {
				delete(m, alias)
			}
		}
	}
	r.publish()
	return true
}

// AddProperty registers a unified property keyword.
func (r *Registry) AddProperty(name string, cat PropertyCategory, doc string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureOwned()
	r.addPropertyLocked(name, cat, doc)
	r.publish()
}

func (r *Registry) addPropertyLocked(name string, cat PropertyCategory, doc string) {
	r.version++
	def, ok := r.properties[name]
	if !ok {
		def = PropertyDef{Name: name, SinceVersion: r.version}
	}
	def.Category = cat
	def.Doc = doc
	r.properties[name] = def
}

// AliasOperation maps a DBMS-specific operation name to a unified keyword.
// The unified keyword must already be registered. Matching is
// case-insensitive on the native name.
func (r *Registry) AliasOperation(dialect, nativeName, unifiedName string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Validate before ensureOwned so a failed alias doesn't un-share a
	// copy-on-write clone that never mutated.
	if err := r.checkOpAliasTarget(dialect, nativeName, unifiedName); err != nil {
		return err
	}
	r.ensureOwned()
	r.setOpAliasLocked(dialect, nativeName, unifiedName)
	r.publish()
	return nil
}

func (r *Registry) checkOpAliasTarget(dialect, nativeName, unifiedName string) error {
	if _, ok := r.operations[unifiedName]; !ok {
		return fmt.Errorf("core: alias %q/%q targets unregistered operation %q",
			dialect, nativeName, unifiedName)
	}
	return nil
}

func (r *Registry) setOpAliasLocked(dialect, nativeName, unifiedName string) {
	m := r.opAliases[dialect]
	if m == nil {
		m = map[string]string{}
		r.opAliases[dialect] = m
	}
	m[strings.ToLower(nativeName)] = unifiedName
}

// AliasProperty maps a DBMS-specific property name to a unified keyword.
func (r *Registry) AliasProperty(dialect, nativeName, unifiedName string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkPropAliasTarget(dialect, nativeName, unifiedName); err != nil {
		return err
	}
	r.ensureOwned()
	r.setPropAliasLocked(dialect, nativeName, unifiedName)
	r.publish()
	return nil
}

func (r *Registry) checkPropAliasTarget(dialect, nativeName, unifiedName string) error {
	if _, ok := r.properties[unifiedName]; !ok {
		return fmt.Errorf("core: alias %q/%q targets unregistered property %q",
			dialect, nativeName, unifiedName)
	}
	return nil
}

func (r *Registry) setPropAliasLocked(dialect, nativeName, unifiedName string) {
	m := r.propAliases[dialect]
	if m == nil {
		m = map[string]string{}
		r.propAliases[dialect] = m
	}
	m[strings.ToLower(nativeName)] = unifiedName
}

// foldedLookup probes a lower-case-keyed map with a possibly mixed-case
// key: first verbatim (hit when the key is already folded), then folded
// through a stack buffer so ASCII keys never touch the heap — the map
// probe m[string(buf)] compiles without a conversion allocation.
func foldedLookup[V any](m map[string]V, key string) (V, bool) {
	if v, ok := m[key]; ok {
		return v, true
	}
	var buf [128]byte
	if len(key) <= len(buf) {
		ascii, changed := true, false
		for i := 0; i < len(key); i++ {
			c := key[i]
			if c >= utf8.RuneSelf {
				ascii = false
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
				changed = true
			}
			buf[i] = c
		}
		if ascii {
			if !changed {
				var zero V
				return zero, false // verbatim probe above already missed
			}
			v, ok := m[string(buf[:len(key)])]
			return v, ok
		}
	}
	v, ok := m[strings.ToLower(key)]
	return v, ok
}

// ResolveOperation maps a DBMS-specific operation name to its unified
// operation. Resolution order: dialect-specific alias, then exact unified
// name, then the generic fallback — an Executor-category operation carrying
// the native name. The fallback implements the extensibility contract:
// converters never fail on an unknown operation; visualization tools render
// such operations generically.
//
// The read path is lock-free: it probes the current snapshot's merged
// per-dialect index (aliases shadow unified names, preserving the
// historical precedence) and allocates nothing on a hit.
//
//uplan:hotpath
func (r *Registry) ResolveOperation(dialect, nativeName string) Operation {
	s := r.snap.Load()
	name := strings.TrimSpace(nativeName)
	if m, ok := s.opIndex[dialect]; ok {
		if op, ok := foldedLookup(m, name); ok {
			return op
		}
	} else if op, ok := foldedLookup(s.opGlobal, name); ok {
		return op
	}
	return Operation{Category: Executor, Name: name}
}

// ResolveProperty maps a DBMS-specific property name to its unified
// property name and category. Unknown properties fall back to the
// Configuration category with the native name, for the same reason as
// ResolveOperation's fallback. Like ResolveOperation, the read path is a
// lock-free, allocation-free snapshot probe.
//
//uplan:hotpath
func (r *Registry) ResolveProperty(dialect, nativeName string) (string, PropertyCategory) {
	s := r.snap.Load()
	name := strings.TrimSpace(nativeName)
	if m, ok := s.propIndex[dialect]; ok {
		if e, ok := foldedLookup(m, name); ok {
			return e.name, e.cat
		}
	} else if e, ok := foldedLookup(s.propGlobal, name); ok {
		return e.name, e.cat
	}
	return name, Configuration
}

// Operation returns the definition of a unified operation keyword.
func (r *Registry) Operation(name string) (OperationDef, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	def, ok := r.operations[name]
	return def, ok
}

// Property returns the definition of a unified property keyword.
func (r *Registry) Property(name string) (PropertyDef, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	def, ok := r.properties[name]
	return def, ok
}

// Operations returns all unified operation definitions sorted by name.
func (r *Registry) Operations() []OperationDef {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]OperationDef, 0, len(r.operations))
	for _, def := range r.operations {
		out = append(out, def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Properties returns all unified property definitions sorted by name.
func (r *Registry) Properties() []PropertyDef {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PropertyDef, 0, len(r.properties))
	for _, def := range r.properties {
		out = append(out, def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// OperationCountByCategory returns how many unified operations exist per
// category (the basis for reproducing paper Table II's unified vocabulary).
func (r *Registry) OperationCountByCategory() map[OperationCategory]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := map[OperationCategory]int{}
	for _, def := range r.operations {
		m[def.Category]++
	}
	return m
}

// defaultTemplate is the fully-built default vocabulary, constructed once
// per process. DefaultRegistry hands out copy-on-write clones of it, so a
// "fresh" default registry costs a handful of pointer copies instead of
// replaying ~600 keyword and alias insertions; clones share the template's
// immutable snapshot until their first mutation.
var defaultTemplate = sync.OnceValue(buildDefaultTemplate)

// DefaultRegistry returns a registry pre-populated with the unified keyword
// set derived from the paper's study: common operation names across the nine
// DBMSs plus their dialect aliases (e.g. PostgreSQL "Seq Scan", SQL Server
// "Table Scan", TiDB "TableFullScan" → "Full Table Scan"). Each call
// returns an independent registry; mutating one never affects another.
func DefaultRegistry() *Registry {
	t := defaultTemplate()
	r := &Registry{
		version:     t.version,
		shared:      true,
		operations:  t.operations,
		properties:  t.properties,
		opAliases:   t.opAliases,
		propAliases: t.propAliases,
	}
	r.snap.Store(t.snap.Load())
	return r
}

func buildDefaultTemplate() *Registry {
	r := NewRegistry()
	r.mu.Lock()
	defer r.mu.Unlock()

	type op struct {
		name string
		cat  OperationCategory
		doc  string
	}
	ops := []op{
		// Producer
		{"Full Table Scan", Producer, "scan an entire table"},
		{"Index Scan", Producer, "scan rows via an index, fetching table rows"},
		{"Index Only Scan", Producer, "read all needed columns from an index"},
		{"Index Range Scan", Producer, "scan a contiguous index range"},
		{"Index Lookup", Producer, "point lookup via a unique index"},
		{"Bitmap Heap Scan", Producer, "fetch rows identified by a bitmap"},
		{"Bitmap Index Scan", Producer, "build a row bitmap from an index"},
		{"Id Scan", Producer, "fetch rows by row identifier"},
		{"Constant Scan", Producer, "produce constant rows without storage access"},
		{"Values Scan", Producer, "produce rows from a VALUES list"},
		{"Function Scan", Producer, "produce rows from a set-returning function"},
		{"Subquery Scan", Producer, "read the result of a subquery"},
		{"CTE Scan", Producer, "read the result of a common table expression"},
		{"Node By Label Scan", Producer, "scan graph nodes with a label"},
		{"Relationship Scan", Producer, "scan graph relationships"},
		{"Collection Scan", Producer, "scan an entire document collection"},
		{"Sample Scan", Producer, "scan a sample of a table"},
		// Combinator
		{"Sort", Combinator, "order tuples by one or more keys"},
		{"Top N", Combinator, "retain the first N tuples of an ordering"},
		{"Union", Combinator, "combine inputs, removing duplicates"},
		{"Union All", Combinator, "concatenate inputs"},
		{"Intersect", Combinator, "tuples present in all inputs"},
		{"Except", Combinator, "tuples of the first input absent from the rest"},
		{"Append", Combinator, "concatenate child outputs"},
		{"Merge Append", Combinator, "merge ordered child outputs"},
		{"Distinct", Combinator, "remove duplicate tuples"},
		{"Limit", Combinator, "pass through at most N tuples"},
		{"Offset", Combinator, "skip the first N tuples"},
		// Join
		{"Nested Loop Join", Join, "join by iterating inner input per outer tuple"},
		{"Hash Join", Join, "join via a hash table on the join key"},
		{"Merge Join", Join, "join two inputs ordered on the join key"},
		{"Index Nested Loop Join", Join, "nested loop using an inner index"},
		{"Index Hash Join", Join, "hash join reading the inner side via index"},
		{"Cartesian Product", Join, "all combinations of input tuples"},
		{"Semi Join", Join, "filter outer tuples having inner matches"},
		{"Anti Join", Join, "filter outer tuples lacking inner matches"},
		{"Expand", Join, "traverse graph relationships from nodes"},
		{"Optional Expand", Join, "expand with optional (outer) semantics"},
		// Folder
		{"Aggregate", Folder, "compute aggregate functions over groups"},
		{"Hash Aggregate", Folder, "aggregate via a hash table of groups"},
		{"Sort Aggregate", Folder, "aggregate over sorted input"},
		{"Stream Aggregate", Folder, "aggregate a pre-ordered stream"},
		{"Group", Folder, "form groups of equal keys"},
		{"Window", Folder, "compute window functions"},
		// Projector
		{"Project", Projector, "compute/remove output columns"},
		{"Produce Results", Projector, "emit final result columns"},
		// Executor
		{"Collect", Executor, "gather rows from remote executors"},
		{"Collect Order", Executor, "gather rows preserving order"},
		{"Gather", Executor, "collect rows from parallel workers"},
		{"Gather Merge", Executor, "collect preserving sort order"},
		{"Exchange", Executor, "redistribute rows across workers/nodes"},
		{"Exchange Sender", Executor, "send rows to other nodes"},
		{"Exchange Receiver", Executor, "receive rows from other nodes"},
		{"Shuffle", Executor, "repartition rows by key"},
		{"Broadcast", Executor, "replicate rows to all nodes"},
		{"Materialize", Executor, "buffer child output for rescans"},
		{"Memoize", Executor, "cache child output by parameter"},
		{"Hash Row", Executor, "build a hash table from input rows"},
		{"Filter", Executor, "drop tuples failing a predicate"},
		{"Fetch", Executor, "fetch full documents for matched keys"},
		{"Whole Stage Codegen", Executor, "fused code-generated pipeline"},
		{"Adaptive Plan", Executor, "runtime-adaptive plan fragment"},
		{"Compute Scalar", Executor, "compute scalar expressions"},
		{"Spool", Executor, "buffer rows for reuse"},
		{"Apply", Executor, "execute a parameterized subplan per row"},
		// Consumer
		{"Insert", Consumer, "insert tuples into a table"},
		{"Update", Consumer, "update stored tuples"},
		{"Delete", Consumer, "delete stored tuples"},
		{"Create Table", Consumer, "create a table"},
		{"Create Index", Consumer, "create an index"},
		{"Set Variable", Consumer, "set a system variable"},
	}
	for _, o := range ops {
		r.addOperationLocked(o.name, o.cat, o.doc)
	}

	type prop struct {
		name string
		cat  PropertyCategory
		doc  string
	}
	props := []prop{
		{"estimated rows", Cardinality, "estimated number of rows returned"},
		{"estimated width", Cardinality, "estimated average row width in bytes"},
		{"actual rows", Cardinality, "observed number of rows returned"},
		{"startup cost", Cost, "estimated cost before the first row"},
		{"total cost", Cost, "estimated cost to return all rows"},
		{"read cost", Cost, "estimated cost of reads"},
		{"eval cost", Cost, "estimated cost of expression evaluation"},
		{"filter", Configuration, "predicate excluding tuples"},
		{"index condition", Configuration, "predicate evaluated via an index"},
		{"access object", Configuration, "table/index/collection accessed"},
		{"name object", Configuration, "name of the accessed object"},
		{"sort key", Configuration, "ordering keys"},
		{"group key", Configuration, "grouping keys"},
		{"join condition", Configuration, "equality/condition joining inputs"},
		{"join type", Configuration, "inner/left/semi/anti"},
		{"output", Configuration, "output column list"},
		{"direction", Configuration, "scan direction"},
		{"recheck condition", Configuration, "condition rechecked on heap rows"},
		{"files", Cardinality, "number of storage files read"},
		{"blocks", Cardinality, "number of storage blocks read"},
		{"block size", Cardinality, "bytes of storage blocks read"},
		{"cached values", Cardinality, "values served from cache"},
		{"shards", Status, "number of shards involved"},
		{"planning time", Status, "time to produce the plan"},
		{"execution time", Status, "time to execute the plan"},
		{"actual time", Status, "observed operator time"},
		{"workers planned", Status, "parallel workers planned"},
		{"workers launched", Status, "parallel workers launched"},
		{"task type", Status, "node/task placement of the operation"},
		{"memory", Status, "memory consumed"},
		{"disk", Status, "disk consumed"},
		{"database accesses", Status, "storage accesses performed"},
	}
	for _, pdef := range props {
		r.addPropertyLocked(pdef.name, pdef.cat, pdef.doc)
	}

	// Dialect aliases for operations. Dialect keys are the lowercase engine
	// names used throughout this repository.
	aliases := []struct{ dialect, native, unified string }{
		// PostgreSQL
		{"postgresql", "Seq Scan", "Full Table Scan"},
		{"postgresql", "Parallel Seq Scan", "Full Table Scan"},
		{"postgresql", "Index Scan", "Index Scan"},
		{"postgresql", "Index Only Scan", "Index Only Scan"},
		{"postgresql", "Bitmap Heap Scan", "Bitmap Heap Scan"},
		{"postgresql", "Bitmap Index Scan", "Bitmap Index Scan"},
		{"postgresql", "Values Scan", "Values Scan"},
		{"postgresql", "Function Scan", "Function Scan"},
		{"postgresql", "Subquery Scan", "Subquery Scan"},
		{"postgresql", "CTE Scan", "CTE Scan"},
		{"postgresql", "Result", "Constant Scan"},
		{"postgresql", "Sort", "Sort"},
		{"postgresql", "Incremental Sort", "Sort"},
		{"postgresql", "Append", "Append"},
		{"postgresql", "Merge Append", "Merge Append"},
		{"postgresql", "Unique", "Distinct"},
		{"postgresql", "Limit", "Limit"},
		{"postgresql", "Nested Loop", "Nested Loop Join"},
		{"postgresql", "Hash Join", "Hash Join"},
		{"postgresql", "Merge Join", "Merge Join"},
		{"postgresql", "Aggregate", "Aggregate"},
		{"postgresql", "HashAggregate", "Hash Aggregate"},
		{"postgresql", "GroupAggregate", "Sort Aggregate"},
		{"postgresql", "Group", "Group"},
		{"postgresql", "WindowAgg", "Window"},
		{"postgresql", "Gather", "Gather"},
		{"postgresql", "Gather Merge", "Gather Merge"},
		{"postgresql", "Materialize", "Materialize"},
		{"postgresql", "Memoize", "Memoize"},
		{"postgresql", "Hash", "Hash Row"},
		{"postgresql", "SetOp", "Except"},
		{"postgresql", "Insert", "Insert"},
		{"postgresql", "Update", "Update"},
		{"postgresql", "Delete", "Delete"},
		// MySQL
		{"mysql", "Table scan", "Full Table Scan"},
		{"mysql", "ALL", "Full Table Scan"},
		{"mysql", "Index lookup", "Index Scan"},
		{"mysql", "Index scan", "Index Scan"},
		{"mysql", "Index range scan", "Index Range Scan"},
		{"mysql", "Covering index scan", "Index Only Scan"},
		{"mysql", "Covering index lookup", "Index Only Scan"},
		{"mysql", "Single-row index lookup", "Index Lookup"},
		{"mysql", "Rows fetched before execution", "Constant Scan"},
		{"mysql", "Filter", "Filter"},
		{"mysql", "Sort", "Sort"},
		{"mysql", "Limit", "Limit"},
		{"mysql", "Nested loop inner join", "Nested Loop Join"},
		{"mysql", "Nested loop left join", "Nested Loop Join"},
		{"mysql", "Inner hash join", "Hash Join"},
		{"mysql", "Left hash join", "Hash Join"},
		{"mysql", "Aggregate", "Aggregate"},
		{"mysql", "Group aggregate", "Sort Aggregate"},
		{"mysql", "Aggregate using temporary table", "Hash Aggregate"},
		{"mysql", "Temporary table", "Materialize"},
		{"mysql", "Union materialize", "Union"},
		{"mysql", "Union all", "Union All"},
		{"mysql", "Deduplicate", "Distinct"},
		{"mysql", "Insert", "Insert"},
		{"mysql", "Update", "Update"},
		{"mysql", "Delete", "Delete"},
		// TiDB
		{"tidb", "TableFullScan", "Full Table Scan"},
		{"tidb", "TableRangeScan", "Index Range Scan"},
		{"tidb", "TableRowIDScan", "Id Scan"},
		{"tidb", "IndexFullScan", "Index Only Scan"},
		{"tidb", "IndexRangeScan", "Index Range Scan"},
		{"tidb", "PointGet", "Index Lookup"},
		{"tidb", "TableDual", "Constant Scan"},
		{"tidb", "Selection", "Filter"},
		{"tidb", "Projection", "Project"},
		{"tidb", "Sort", "Sort"},
		{"tidb", "TopN", "Top N"},
		{"tidb", "Limit", "Limit"},
		{"tidb", "HashJoin", "Hash Join"},
		{"tidb", "IndexJoin", "Index Nested Loop Join"},
		{"tidb", "IndexHashJoin", "Index Hash Join"},
		{"tidb", "MergeJoin", "Merge Join"},
		{"tidb", "HashAgg", "Hash Aggregate"},
		{"tidb", "StreamAgg", "Stream Aggregate"},
		{"tidb", "TableReader", "Collect"},
		{"tidb", "IndexReader", "Collect"},
		{"tidb", "IndexLookUp", "Collect Order"},
		{"tidb", "ExchangeSender", "Exchange Sender"},
		{"tidb", "ExchangeReceiver", "Exchange Receiver"},
		{"tidb", "Shuffle", "Shuffle"},
		{"tidb", "Union", "Union All"},
		{"tidb", "HashDistinct", "Distinct"},
		{"tidb", "Insert", "Insert"},
		{"tidb", "Update", "Update"},
		{"tidb", "Delete", "Delete"},
		// SQLite
		{"sqlite", "SCAN", "Full Table Scan"},
		{"sqlite", "SEARCH", "Index Scan"},
		{"sqlite", "COMPOUND QUERY", "Append"},
		{"sqlite", "UNION", "Union"},
		{"sqlite", "UNION ALL", "Union All"},
		{"sqlite", "INTERSECT", "Intersect"},
		{"sqlite", "EXCEPT", "Except"},
		{"sqlite", "MERGE", "Merge Append"},
		{"sqlite", "MATERIALIZE", "Materialize"},
		// CO-ROUTINE and LEFT-MOST SUBQUERY intentionally resolve via the
		// generic Executor fallback, matching their Table II classification.
		// SQL Server
		{"sqlserver", "Table Scan", "Full Table Scan"},
		{"sqlserver", "Clustered Index Scan", "Full Table Scan"},
		{"sqlserver", "Clustered Index Seek", "Index Scan"},
		{"sqlserver", "Index Seek", "Index Scan"},
		{"sqlserver", "Index Scan", "Index Only Scan"},
		{"sqlserver", "Key Lookup", "Id Scan"},
		{"sqlserver", "Constant Scan", "Constant Scan"},
		{"sqlserver", "Sort", "Sort"},
		{"sqlserver", "Top", "Limit"},
		{"sqlserver", "Concatenation", "Append"},
		{"sqlserver", "Nested Loops", "Nested Loop Join"},
		{"sqlserver", "Hash Match", "Hash Join"},
		{"sqlserver", "Merge Join", "Merge Join"},
		{"sqlserver", "Stream Aggregate", "Stream Aggregate"},
		{"sqlserver", "Hash Match Aggregate", "Hash Aggregate"},
		{"sqlserver", "Compute Scalar", "Compute Scalar"},
		{"sqlserver", "Filter", "Filter"},
		{"sqlserver", "Parallelism", "Exchange"},
		{"sqlserver", "Table Spool", "Spool"},
		{"sqlserver", "Table Insert", "Insert"},
		{"sqlserver", "Table Update", "Update"},
		{"sqlserver", "Table Delete", "Delete"},
		// MongoDB
		{"mongodb", "COLLSCAN", "Collection Scan"},
		{"mongodb", "IXSCAN", "Index Scan"},
		{"mongodb", "FETCH", "Fetch"},
		{"mongodb", "SORT", "Sort"},
		{"mongodb", "LIMIT", "Limit"},
		{"mongodb", "SKIP", "Offset"},
		{"mongodb", "GROUP", "Hash Aggregate"},
		{"mongodb", "PROJECTION_DEFAULT", "Project"},
		{"mongodb", "PROJECTION_SIMPLE", "Project"},
		{"mongodb", "PROJECTION_COVERED", "Project"},
		{"mongodb", "SORT_MERGE", "Merge Append"},
		{"mongodb", "OR", "Union"},
		{"mongodb", "IDHACK", "Index Lookup"},
		{"mongodb", "COUNT", "Aggregate"},
		{"mongodb", "UPDATE", "Update"},
		{"mongodb", "DELETE", "Delete"},
		// Neo4j
		{"neo4j", "AllNodesScan", "Full Table Scan"},
		{"neo4j", "NodeByLabelScan", "Node By Label Scan"},
		{"neo4j", "NodeIndexSeek", "Index Scan"},
		{"neo4j", "NodeIndexScan", "Index Only Scan"},
		{"neo4j", "UndirectedRelationshipIndexContainsScan", "Relationship Scan"},
		{"neo4j", "DirectedRelationshipTypeScan", "Relationship Scan"},
		{"neo4j", "Expand(All)", "Expand"},
		{"neo4j", "Expand(Into)", "Expand"},
		{"neo4j", "OptionalExpand(All)", "Optional Expand"},
		{"neo4j", "VarLengthExpand(All)", "Expand"},
		{"neo4j", "NodeHashJoin", "Hash Join"},
		{"neo4j", "ValueHashJoin", "Hash Join"},
		{"neo4j", "CartesianProduct", "Cartesian Product"},
		{"neo4j", "Filter", "Filter"},
		{"neo4j", "Projection", "Project"},
		{"neo4j", "EagerAggregation", "Hash Aggregate"},
		{"neo4j", "OrderedAggregation", "Sort Aggregate"},
		{"neo4j", "Sort", "Sort"},
		{"neo4j", "Top", "Top N"},
		{"neo4j", "Limit", "Limit"},
		{"neo4j", "Skip", "Offset"},
		{"neo4j", "Distinct", "Distinct"},
		{"neo4j", "Union", "Union"},
		{"neo4j", "ProduceResults", "Produce Results"},
		{"neo4j", "Apply", "Apply"},
		// SparkSQL
		{"sparksql", "Scan", "Full Table Scan"},
		{"sparksql", "FileScan", "Full Table Scan"},
		{"sparksql", "Filter", "Filter"},
		{"sparksql", "Project", "Project"},
		{"sparksql", "Sort", "Sort"},
		{"sparksql", "TakeOrderedAndProject", "Top N"},
		{"sparksql", "GlobalLimit", "Limit"},
		{"sparksql", "LocalLimit", "Limit"},
		{"sparksql", "BroadcastHashJoin", "Hash Join"},
		{"sparksql", "ShuffledHashJoin", "Hash Join"},
		{"sparksql", "SortMergeJoin", "Merge Join"},
		{"sparksql", "BroadcastNestedLoopJoin", "Nested Loop Join"},
		{"sparksql", "CartesianProduct", "Cartesian Product"},
		{"sparksql", "HashAggregate", "Hash Aggregate"},
		{"sparksql", "SortAggregate", "Sort Aggregate"},
		{"sparksql", "ObjectHashAggregate", "Hash Aggregate"},
		{"sparksql", "Exchange", "Exchange"},
		{"sparksql", "BroadcastExchange", "Broadcast"},
		{"sparksql", "AQEShuffleRead", "Exchange Receiver"},
		{"sparksql", "WholeStageCodegen", "Whole Stage Codegen"},
		{"sparksql", "AdaptiveSparkPlan", "Adaptive Plan"},
		{"sparksql", "Union", "Union All"},
		{"sparksql", "HashAggregateDistinct", "Distinct"},
		{"sparksql", "SetCatalogAndNamespace", "Set Variable"},
	}
	for _, a := range aliases {
		if err := r.checkOpAliasTarget(a.dialect, a.native, a.unified); err != nil {
			panic(err) // static table; any failure is a programming error
		}
		r.setOpAliasLocked(a.dialect, a.native, a.unified)
	}

	propAliases := []struct{ dialect, native, unified string }{
		{"postgresql", "rows", "estimated rows"},
		{"postgresql", "width", "estimated width"},
		{"postgresql", "actual rows", "actual rows"},
		{"postgresql", "startup cost", "startup cost"},
		{"postgresql", "total cost", "total cost"},
		{"postgresql", "Filter", "filter"},
		{"postgresql", "Index Cond", "index condition"},
		{"postgresql", "Recheck Cond", "recheck condition"},
		{"postgresql", "Sort Key", "sort key"},
		{"postgresql", "Group Key", "group key"},
		{"postgresql", "Hash Cond", "join condition"},
		{"postgresql", "Merge Cond", "join condition"},
		{"postgresql", "Join Filter", "join condition"},
		{"postgresql", "Relation Name", "name object"},
		{"postgresql", "Index Name", "access object"},
		{"postgresql", "Output", "output"},
		{"postgresql", "Workers Planned", "workers planned"},
		{"postgresql", "Workers Launched", "workers launched"},
		{"postgresql", "Planning Time", "planning time"},
		{"postgresql", "Execution Time", "execution time"},
		{"postgresql", "Actual Time", "actual time"},
		{"mysql", "rows", "estimated rows"},
		{"mysql", "cost", "total cost"},
		{"mysql", "read_cost", "read cost"},
		{"mysql", "eval_cost", "eval cost"},
		{"mysql", "filtered", "filter"},
		{"mysql", "attached_condition", "filter"},
		{"mysql", "key", "access object"},
		{"mysql", "table_name", "name object"},
		{"mysql", "used_columns", "output"},
		{"mysql", "group_by", "group key"},
		{"tidb", "estRows", "estimated rows"},
		{"tidb", "actRows", "actual rows"},
		{"tidb", "cost", "total cost"},
		{"tidb", "task", "task type"},
		{"tidb", "access object", "access object"},
		{"tidb", "operator info", "filter"},
		{"sqlite", "USING INDEX", "access object"},
		{"sqlite", "USING COVERING INDEX", "index condition"},
		{"mongodb", "nReturned", "actual rows"},
		{"mongodb", "docsExamined", "database accesses"},
		{"mongodb", "indexName", "access object"},
		{"mongodb", "direction", "direction"},
		{"mongodb", "filter", "filter"},
		{"mongodb", "namespace", "name object"},
		{"neo4j", "Rows", "actual rows"},
		{"neo4j", "EstimatedRows", "estimated rows"},
		{"neo4j", "DbHits", "database accesses"},
		{"neo4j", "Memory", "memory"},
		{"neo4j", "Details", "filter"},
		{"sqlserver", "EstimateRows", "estimated rows"},
		{"sqlserver", "EstimatedTotalSubtreeCost", "total cost"},
		{"sqlserver", "EstimateIO", "read cost"},
		{"sqlserver", "EstimateCPU", "eval cost"},
		{"sqlserver", "Predicate", "filter"},
		{"sqlserver", "Object", "name object"},
		{"sparksql", "sizeInBytes", "estimated width"},
		{"sparksql", "rowCount", "estimated rows"},
		{"sparksql", "condition", "filter"},
		{"sparksql", "keys", "group key"},
		{"sparksql", "functions", "output"},
		{"influxdb", "TotalSeries", "estimated rows"},
		{"influxdb", "PlanningTime", "planning time"},
		{"influxdb", "ExecutionTime", "execution time"},
		{"influxdb", "NUMBER OF SERIES", "estimated rows"},
		{"influxdb", "NUMBER OF FILES", "files"},
		{"influxdb", "NUMBER OF BLOCKS", "blocks"},
		{"influxdb", "SIZE OF BLOCKS", "block size"},
		{"influxdb", "CACHED VALUES", "cached values"},
		{"influxdb", "NUMBER OF SHARDS", "shards"},
		{"influxdb", "EXPRESSION", "output"},
	}
	for _, a := range propAliases {
		if err := r.checkPropAliasTarget(a.dialect, a.native, a.unified); err != nil {
			panic(err)
		}
		r.setPropAliasLocked(a.dialect, a.native, a.unified)
	}
	r.publish()
	return r
}
