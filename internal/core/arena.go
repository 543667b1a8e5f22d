package core

import "strings"

// PlanArena is a slab allocator for plan construction. Converters and other
// plan builders that produce many short-lived trees allocate every Node,
// Property, and child-pointer slot from a handful of large slabs instead of
// one heap object per element, and optionally intern repeated strings, so
// the batch hot path performs a near-constant number of allocations per
// plan regardless of tree size.
//
// The zero value is ready to use. An arena is NOT safe for concurrent use;
// give each goroutine its own (batch workers each borrow one from the
// convert package's pool).
//
// # Ownership and lifecycle
//
// A plan built through an arena aliases the arena's slabs: its nodes, its
// property lists, and its child-pointer lists all live in arena memory.
// Three lifecycles are supported:
//
//   - One-shot: build a plan in a fresh arena and never Reset it. The
//     slabs are garbage-collected with the plan; the arena is purely an
//     allocation-batching device.
//   - Reuse: build a plan, consume it, then Reset and build the next one.
//     Reset recycles the slabs, so a warmed-up arena builds subsequent
//     plans with zero slab allocations. The previously built plan must
//     not be used after Reset — its memory is reused.
//   - Detach: when a plan must outlive the arena (results escaping a
//     worker loop), call Plan.Clone before Reset. Clone copies the tree
//     into independent, compactly laid-out heap storage (see Plan.Clone);
//     the clone is unaffected by any later Reset. Reuse-plus-detach is
//     what the convert package's plain Convert does internally and what
//     batch workers do, both in arenas borrowed from convert's pool.
//
// Strings are never copied into the arena: names and values keep pointing
// at whatever backing they had (typically substrings of the converter
// input, or registry-interned vocabulary). Intern deduplicates repeated
// dynamic strings across plans; interned strings survive Reset by design.
type PlanArena struct {
	nodeSlab []Node
	nodeUsed int

	propSlab []Property
	propUsed int

	childSlab []*Node
	childUsed int

	intern map[string]string
}

// Initial slab capacities (elements, not bytes). Chosen so a typical
// EXPLAIN plan (≈10–20 operations, ≈3–6 properties each) fits in the first
// slab of each kind; slabs double when exhausted.
const (
	arenaNodeCap0  = 8
	arenaPropCap0  = 32
	arenaChildCap0 = 8

	// arenaPropHint is the property capacity reserved when a node (or
	// plan) receives its first arena property; blocks at the slab frontier
	// grow in place, so a small hint wastes little and covers most nodes.
	arenaPropHint = 4

	// arenaChildHint is the child capacity reserved on first AddChildIn.
	arenaChildHint = 2

	// arenaMaxIntern bounds the length of strings Intern will table;
	// longer strings (big predicate texts, operator info dumps) are almost
	// always unique, so tabling them would only grow the map.
	arenaMaxIntern = 64

	// arenaMaxInternEntries caps the intern table. The table survives
	// Reset by design, so without a cap a long-lived (pooled or
	// per-worker) arena fed high-cardinality values would grow it without
	// bound; past the cap, new strings simply pass through uninterned.
	arenaMaxInternEntries = 4096
)

// NewPlanArena returns an empty arena. Slabs are allocated lazily on first
// use; the zero value works identically.
func NewPlanArena() *PlanArena { return &PlanArena{} }

// Reset recycles the arena for the next plan: all slab space is reclaimed
// (and zeroed, so recycled slots hold no stale pointers) while the slabs
// themselves — and the intern table — are retained. Every plan previously
// built in this arena becomes invalid unless it was detached with
// Plan.Clone first.
func (a *PlanArena) Reset() {
	if a == nil {
		return
	}
	clear(a.nodeSlab[:a.nodeUsed])
	clear(a.propSlab[:a.propUsed])
	clear(a.childSlab[:a.childUsed])
	a.nodeUsed, a.propUsed, a.childUsed = 0, 0, 0
}

// NewNodeIn allocates a node for the given operation from the arena. A nil
// arena falls back to a plain heap allocation, so builders can thread an
// optional arena without branching at every construction site.
func (a *PlanArena) NewNodeIn(cat OperationCategory, name string) *Node {
	if a == nil {
		return &Node{Op: Operation{Category: cat, Name: name}}
	}
	if a.nodeUsed == len(a.nodeSlab) {
		size := 2 * len(a.nodeSlab)
		if size == 0 {
			size = arenaNodeCap0
		}
		// The outgrown slab is abandoned to the plan that references it;
		// the arena only ever recycles its current slab.
		a.nodeSlab = make([]Node, size)
		a.nodeUsed = 0
	}
	n := &a.nodeSlab[a.nodeUsed]
	a.nodeUsed++
	n.Op = Operation{Category: cat, Name: name}
	return n
}

// AddPropertyIn appends a property to the node, growing its property list
// inside the arena. A nil arena appends on the heap like Node.AddProperty.
func (a *PlanArena) AddPropertyIn(n *Node, cat PropertyCategory, name string, v Value) {
	p := Property{Category: cat, Name: name, Value: v}
	if a == nil {
		n.Properties = append(n.Properties, p)
		return
	}
	n.Properties = a.appendProp(n.Properties, p)
}

// AddPlanPropertyIn appends a plan-associated property, growing the plan's
// property list inside the arena. A nil arena appends on the heap.
func (a *PlanArena) AddPlanPropertyIn(pl *Plan, cat PropertyCategory, name string, v Value) {
	p := Property{Category: cat, Name: name, Value: v}
	if a == nil {
		pl.Properties = append(pl.Properties, p)
		return
	}
	pl.Properties = a.appendProp(pl.Properties, p)
}

// AddChildIn appends child to parent.Children, growing the child list
// inside the arena. A nil arena appends on the heap like Node.AddChild.
func (a *PlanArena) AddChildIn(parent, child *Node) {
	if a == nil {
		parent.Children = append(parent.Children, child)
		return
	}
	parent.Children = a.appendChild(parent.Children, child)
}

// AppendChildIn appends c to a free-standing child list (one not yet
// attached to a node), growing it inside the arena. A nil arena appends on
// the heap.
func (a *PlanArena) AppendChildIn(children []*Node, c *Node) []*Node {
	if a == nil {
		return append(children, c)
	}
	return a.appendChild(children, c)
}

// Intern returns a canonical copy of s, deduplicating repeated dynamic
// strings (operation names, property keys, common values) across every
// plan built in the arena. The canonical copy is independent of s's
// backing array, so interning a substring of a large input does not pin
// the input. The table survives Reset; long strings pass through untabled.
// A nil arena returns s unchanged.
func (a *PlanArena) Intern(s string) string {
	if a == nil || len(s) > arenaMaxIntern {
		return s
	}
	if c, ok := a.intern[s]; ok {
		return c
	}
	if len(a.intern) >= arenaMaxInternEntries {
		return s
	}
	if a.intern == nil {
		a.intern = make(map[string]string, 64)
	}
	c := strings.Clone(s)
	a.intern[c] = c
	return c
}

// InternBytes is Intern for a []byte key: it returns the canonical string
// for b, copying b into a new string only when the table has no entry yet.
// A table hit costs zero allocations (the map lookup converts b without
// copying), which is what makes repeated binary-codec decodes into a warm
// arena allocation-free for their string tables. The same length and entry
// caps as Intern apply; a nil arena always copies.
func (a *PlanArena) InternBytes(b []byte) string {
	if a == nil || len(b) > arenaMaxIntern {
		return string(b)
	}
	if c, ok := a.intern[string(b)]; ok { // no alloc: compiler-recognized map key conversion
		return c
	}
	if len(a.intern) >= arenaMaxInternEntries {
		return string(b)
	}
	if a.intern == nil {
		a.intern = make(map[string]string, 64)
	}
	c := string(b)
	a.intern[c] = c
	return c
}

// appendProp appends p to props using arena storage. Blocks sitting at the
// slab frontier — the common case, since builders typically finish one
// node's properties before starting the next — grow in place; displaced
// blocks relocate to a fresh, larger reservation (the old space is
// abandoned until Reset, the usual arena space-for-speed trade).
func (a *PlanArena) appendProp(props []Property, p Property) []Property {
	if len(props) < cap(props) {
		return append(props, p) // room inside this block's reservation
	}
	if cap(props) == 0 {
		return append(a.grabProps(arenaPropHint), p)
	}
	if start := a.propUsed - cap(props); start >= 0 && &props[0:1][0] == &a.propSlab[start] {
		// props is the frontier block: extend its reservation in place.
		grow := cap(props)
		if a.propUsed+grow <= len(a.propSlab) {
			a.propUsed += grow
			return append(a.propSlab[start:start+len(props):a.propUsed], p)
		}
	}
	nb := a.grabProps(2 * cap(props))[:len(props)]
	copy(nb, props)
	return append(nb, p)
}

// grabProps reserves an n-capacity, zero-length property block.
func (a *PlanArena) grabProps(n int) []Property {
	if a.propUsed+n > len(a.propSlab) {
		size := 2 * len(a.propSlab)
		if size < arenaPropCap0 {
			size = arenaPropCap0
		}
		for size < n {
			size *= 2
		}
		a.propSlab = make([]Property, size)
		a.propUsed = 0
	}
	s := a.propSlab[a.propUsed : a.propUsed : a.propUsed+n]
	a.propUsed += n
	return s
}

// appendChild appends c to children using arena storage; same frontier
// growth scheme as appendProp.
func (a *PlanArena) appendChild(children []*Node, c *Node) []*Node {
	if len(children) < cap(children) {
		return append(children, c)
	}
	if cap(children) == 0 {
		return append(a.grabChildren(arenaChildHint), c)
	}
	if start := a.childUsed - cap(children); start >= 0 && &children[0:1][0] == &a.childSlab[start] {
		grow := cap(children)
		if a.childUsed+grow <= len(a.childSlab) {
			a.childUsed += grow
			return append(a.childSlab[start:start+len(children):a.childUsed], c)
		}
	}
	nb := a.grabChildren(2 * cap(children))[:len(children)]
	copy(nb, children)
	return append(nb, c)
}

// grabChildren reserves an n-capacity, zero-length child-pointer block.
func (a *PlanArena) grabChildren(n int) []*Node {
	if a.childUsed+n > len(a.childSlab) {
		size := 2 * len(a.childSlab)
		if size < arenaChildCap0 {
			size = arenaChildCap0
		}
		for size < n {
			size *= 2
		}
		a.childSlab = make([]*Node, size)
		a.childUsed = 0
	}
	s := a.childSlab[a.childUsed : a.childUsed : a.childUsed+n]
	a.childUsed += n
	return s
}
