package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"uplan/internal/core"
)

// corrupt wraps a decode failure so errors.Is(err, ErrCorrupt) holds.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// checkHeader validates the four-byte magic/version prefix and returns the
// bytes after it.
func checkHeader(data []byte) ([]byte, error) {
	if len(data) < len(planMagic)+1 {
		return nil, corrupt("input of %d bytes is shorter than the header", len(data))
	}
	if string(data[:len(planMagic)]) != planMagic {
		return nil, corrupt("bad magic %q (want %q)", data[:len(planMagic)], planMagic)
	}
	if v := data[len(planMagic)]; v != Version {
		return nil, corrupt("unknown format version %d (have %d)", v, Version)
	}
	return data[len(planMagic)+1:], nil
}

// parseTable reads the string table section, materializing each entry
// through ar.InternBytes — once per distinct string for a warm arena, and
// never aliasing data — and returns the table plus the bytes after it.
func parseTable(data []byte, ar *core.PlanArena) ([]string, []byte, error) {
	count, n, err := readUvarint(data, 0)
	if err != nil {
		return nil, nil, err
	}
	off := n
	if count > maxTableEntries || count > uint64(len(data)-off) {
		return nil, nil, corrupt("string table declares %d entries in %d remaining bytes", count, len(data)-off)
	}
	// First pass over the lengths: validate and find the byte region.
	lenStart := off
	total := 0
	for i := uint64(0); i < count; i++ {
		l, n, err := readUvarint(data, off)
		if err != nil {
			return nil, nil, err
		}
		off = n
		if l > maxStringLen {
			return nil, nil, corrupt("table entry %d declares %d bytes", i, l)
		}
		total += int(l)
		if total > len(data)-off {
			return nil, nil, corrupt("string table overruns the input")
		}
	}
	bytesStart := off
	// Second pass re-reads the (already validated) lengths and slices the
	// concatenated region, avoiding a temporary length slice.
	table := make([]string, count)
	off, pos := lenStart, bytesStart
	for i := range table {
		l, n, _ := readUvarint(data, off)
		off = n
		table[i] = ar.InternBytes(data[pos : pos+int(l)])
		pos += int(l)
	}
	return table, data[bytesStart+total:], nil
}

// readUvarint decodes a canonical (minimal-length) uvarint at data[off:]
// and returns the value and the offset after it. Non-minimal encodings are
// rejected so every value has exactly one representation — the property
// that makes encode a fixed point and lets the store-style fuzz harness
// assert deterministic re-encoding.
func readUvarint(data []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, corrupt("truncated or oversized varint at offset %d", off)
	}
	if n > 1 && v < 1<<uint(7*(n-1)) {
		return 0, 0, corrupt("non-canonical varint at offset %d", off)
	}
	return v, off + n, nil
}

// decoder is the forward-pass cursor over a plan record. The table is
// parsed up front, so record decoding itself touches only data and table.
type decoder struct {
	data  []byte
	off   int
	table []string
}

func (d *decoder) uvarint() (uint64, error) {
	v, n, err := readUvarint(d.data, d.off)
	d.off = n
	return v, err
}

func (d *decoder) str(ref uint64) (string, error) {
	if ref >= uint64(len(d.table)) {
		return "", corrupt("string ref %d out of range (table has %d entries)", ref, len(d.table))
	}
	return d.table[ref], nil
}

// decodePlan decodes one plan record into ar. Children counts are declared
// by each parent and nodes arrive pre-order, so the tree is rebuilt in a
// single forward pass with an explicit frame stack — no recursion, so a
// crafted million-deep chain costs memory proportional to its depth but
// can never overflow the goroutine stack.
//
//uplan:hotpath
func (d *decoder) decodePlan(ar *core.PlanArena) (*core.Plan, error) {
	nodes, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nodes > maxNodes || nodes > uint64(len(d.data)-d.off) {
		return nil, corrupt("plan declares %d nodes in %d remaining bytes", nodes, len(d.data)-d.off)
	}
	srcRef, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	src, err := d.str(srcRef)
	if err != nil {
		return nil, err
	}
	p := &core.Plan{Source: src}
	if err := d.decodeProps(ar, nil, p); err != nil {
		return nil, err
	}
	if nodes == 0 {
		return p, nil
	}

	// frame tracks a parent still owed children. The small backing array
	// keeps typical trees (depth ≤ 16) off the heap.
	type frame struct {
		n    *core.Node
		left uint64
	}
	var stackArr [16]frame
	stack := stackArr[:0]
	declared := uint64(0) // children promised so far; must total nodes-1
	for i := uint64(0); i < nodes; i++ {
		catCode, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		var cat core.OperationCategory
		if catCode < uint64(len(core.OperationCategories)) {
			cat = core.OperationCategories[catCode]
		} else {
			s, err := d.str(catCode - uint64(len(core.OperationCategories)))
			if err != nil {
				return nil, err
			}
			cat = core.OperationCategory(s)
		}
		nameRef, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		name, err := d.str(nameRef)
		if err != nil {
			return nil, err
		}
		n := ar.NewNodeIn(cat, name)
		if err := d.decodeProps(ar, n, nil); err != nil {
			return nil, err
		}
		children, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		declared += children
		if declared > nodes-1 {
			return nil, corrupt("nodes declare %d children but only %d non-root nodes exist", declared, nodes-1)
		}
		if i == 0 {
			p.Root = n
		} else {
			if len(stack) == 0 {
				return nil, corrupt("node %d has no pending parent", i)
			}
			top := &stack[len(stack)-1]
			ar.AddChildIn(top.n, n)
			top.left--
		}
		if children > 0 {
			stack = append(stack, frame{n, children})
		}
		for len(stack) > 0 && stack[len(stack)-1].left == 0 {
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 || declared != nodes-1 {
		return nil, corrupt("plan record ends with %d children still missing", nodes-1-declared)
	}
	return p, nil
}

// decodeProps decodes one property-list section into n's property list
// (or, when n is nil, into pl's plan-associated list), appending in the
// arena. The explicit target instead of a callback keeps the per-node loop
// free of closure allocations.
//
//uplan:hotpath
func (d *decoder) decodeProps(ar *core.PlanArena, n *core.Node, pl *core.Plan) error {
	count, err := d.uvarint()
	if err != nil {
		return err
	}
	// A property is at least three bytes (category, name ref, value tag).
	if count > maxProps || count > uint64(len(d.data)-d.off) {
		return corrupt("property list declares %d entries in %d remaining bytes", count, len(d.data)-d.off)
	}
	for i := uint64(0); i < count; i++ {
		catCode, err := d.uvarint()
		if err != nil {
			return err
		}
		var cat core.PropertyCategory
		if catCode < uint64(len(core.PropertyCategories)) {
			cat = core.PropertyCategories[catCode]
		} else {
			s, err := d.str(catCode - uint64(len(core.PropertyCategories)))
			if err != nil {
				return err
			}
			cat = core.PropertyCategory(s)
		}
		nameRef, err := d.uvarint()
		if err != nil {
			return err
		}
		name, err := d.str(nameRef)
		if err != nil {
			return err
		}
		v, err := d.decodeValue()
		if err != nil {
			return err
		}
		if n != nil {
			ar.AddPropertyIn(n, cat, name, v)
		} else {
			ar.AddPlanPropertyIn(pl, cat, name, v)
		}
	}
	return nil
}

// decodeValue decodes one value.
//
//uplan:hotpath
func (d *decoder) decodeValue() (core.Value, error) {
	if d.off >= len(d.data) {
		return core.Value{}, corrupt("truncated value at offset %d", d.off)
	}
	tag := d.data[d.off]
	d.off++
	switch tag {
	case valNull:
		return core.Null(), nil
	case valString:
		ref, err := d.uvarint()
		if err != nil {
			return core.Value{}, err
		}
		s, err := d.str(ref)
		if err != nil {
			return core.Value{}, err
		}
		return core.Str(s), nil
	case valFloat:
		if len(d.data)-d.off < 8 {
			return core.Value{}, corrupt("truncated float64 at offset %d", d.off)
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return core.Value{}, corrupt("non-finite float64 at offset %d", d.off)
		}
		d.off += 8
		return core.Num(f), nil
	case valTrue:
		return core.BoolVal(true), nil
	case valFalse:
		return core.BoolVal(false), nil
	case valZigzag:
		u, err := d.uvarint()
		if err != nil {
			return core.Value{}, err
		}
		i := int64(u>>1) ^ -int64(u&1)
		return core.Num(float64(i)), nil
	default:
		return core.Value{}, corrupt("unknown value kind tag %d", tag)
	}
}

// DecodeInto decodes a plan blob produced by Encode, building the plan in
// ar (heap fallback on nil). The decoded plan follows the arena lifecycle:
// it is invalidated by ar.Reset unless detached with Plan.Clone first.
// Strings never alias data — table entries are interned through
// ar.InternBytes — so the caller may discard or reuse the input buffer
// immediately. All failures wrap ErrCorrupt.
func DecodeInto(data []byte, ar *core.PlanArena) (*core.Plan, error) {
	rest, err := checkHeader(data)
	if err != nil {
		return nil, err
	}
	table, rest, err := parseTable(rest, ar)
	if err != nil {
		return nil, err
	}
	d := decoder{data: rest, table: table}
	p, err := d.decodePlan(ar)
	if err != nil {
		return nil, err
	}
	if d.off != len(d.data) {
		return nil, corrupt("%d trailing bytes after the plan record", len(d.data)-d.off)
	}
	return p, nil
}
