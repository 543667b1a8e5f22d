// Package codec implements a compact binary serialization of unified query
// plans — the interchange companion to the canonical text (text.go) and
// JSON (json.go) formats of the paper's Listing 2.
//
// The format applies the same compaction insight as factorised result
// representations: every repeated string is stored once and referenced by
// index. A plan blob is
//
//	magic "UPB" | version (1 byte)
//	string table: uvarint entry count,
//	              entry count × uvarint byte length,
//	              all entry bytes concatenated
//	plan record
//
// and a plan record is
//
//	uvarint node count
//	uvarint source ref
//	uvarint plan-property count, properties
//	node records, depth-first pre-order
//
// where a node record is
//
//	uvarint op category (0–6 canonical index, else 7+ref)
//	uvarint op name ref
//	uvarint property count, properties
//	uvarint child count        (children follow immediately, pre-order)
//
// a property is
//
//	uvarint category (0–3 canonical index, else 4+ref) | uvarint name ref | value
//
// and a value is a one-byte kind tag: 0 null; 1 string (uvarint ref);
// 2 float64 (8 bytes little-endian IEEE bits); 3 true; 4 false; 5 integral
// number (zigzag varint). Integral float64s take the zigzag form, so
// cardinalities and costs — overwhelmingly whole numbers — cost one to
// three bytes instead of eight.
//
// Because children counts are declared by the parent and nodes are written
// pre-order, decoding is a single forward pass with an explicit stack: no
// seeking, no recursion, no second pass. All varints must be canonical
// (minimal length); Encode is a fixed point, so encode→decode→encode is
// byte-identical.
//
// A corpus file (CorpusWriter / CorpusReader) is the same layout with magic
// "UPC", one string table shared by all plans, and a uvarint plan count
// before the records:
//
//	magic "UPC" | version | string table | uvarint plan count | plan records
//
// # Encoding
//
// An Encoder holds the string-table index, the entry list and the record
// scratch of one plan, and clears them (keeping their capacity) before
// the next, so a warm Encoder encodes without allocating. Because the
// table and record sizes are known before any byte of the blob is
// written, AppendEncodeLen writes a blob behind its uvarint length
// straight into a wire message — the serve batch path streams a whole
// response through one Encoder this way. The package-level Encode and
// AppendEncode borrow an Encoder from a sync.Pool; encoders whose table
// or scratch grew past a fixed size are dropped instead of pooled.
//
// # Arena ownership
//
// DecodeInto builds the plan's nodes, property lists, and child lists in
// the caller's PlanArena (heap fallback on nil), so the decoded plan
// follows the arena lifecycle rules of core.PlanArena: it is invalidated by
// Reset unless detached with Plan.Clone. Strings are independent of both
// the arena and the input buffer — table entries are materialized through
// PlanArena.InternBytes (once per distinct string for a warm arena, since
// the intern table survives Reset) — so a clone never aliases the encoded
// bytes and a CorpusReader may be Closed (unmapping its file) while decoded
// plans live on.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"uplan/internal/core"
)

// The three-byte magics and the format version. A version bump is a
// breaking change: decoders reject versions they do not know.
const (
	planMagic   = "UPB"
	corpusMagic = "UPC"
	Version     = 1
)

// Defensive bounds. They exist so a corrupt or hostile length prefix fails
// fast instead of provoking a huge allocation; every count is additionally
// bounded by the remaining input bytes during decode.
const (
	maxStringLen    = 1 << 28 // longest single table entry
	maxTableEntries = 1 << 24
	maxNodes        = 1 << 24
	maxProps        = 1 << 24
)

// maxZigzagInt bounds the integral values that use the zigzag encoding:
// beyond 2⁵³ a float64 no longer represents every integer, so the
// int64 round trip would be lossy.
const maxZigzagInt = 1 << 53

// ErrCorrupt is wrapped by every decode error: the input is not a valid
// plan blob or corpus (bad magic, unknown version, truncated or
// non-canonical varint, out-of-range reference, inconsistent tree shape).
// Callers distinguish "bad input" from I/O failures with errors.Is.
var ErrCorrupt = errors.New("codec: corrupt or truncated plan data")

// encoder accumulates the string table while plan records are appended.
// Errors are sticky: ref keeps returning indexes after a failure so record
// encoding can run unconditionally, and the caller checks err once at the
// end — the same discipline as the store's sticky write failures.
type encoder struct {
	index   map[string]uint64
	entries []string
	nbytes  int
	err     error
}

// ref returns the table index for s, adding it on first use. The
// first-use-order assignment is what makes Encode deterministic and a
// fixed point under decode→encode.
//
//uplan:hotpath
func (e *encoder) ref(s string) uint64 {
	if i, ok := e.index[s]; ok {
		return i
	}
	if e.err != nil {
		return 0
	}
	if len(s) > maxStringLen {
		e.err = fmt.Errorf("codec: string of %d bytes exceeds the %d-byte table entry limit", len(s), maxStringLen)
		return 0
	}
	if len(e.entries) >= maxTableEntries {
		e.err = fmt.Errorf("codec: string table exceeds %d entries", maxTableEntries)
		return 0
	}
	if e.index == nil {
		e.index = make(map[string]uint64, 64)
	}
	i := uint64(len(e.entries))
	e.index[s] = i
	e.entries = append(e.entries, s)
	e.nbytes += len(s)
	return i
}

// appendTable appends the string table section: entry count, lengths,
// concatenated bytes.
//
//uplan:hotpath
func (e *encoder) appendTable(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.entries)))
	for _, s := range e.entries {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	for _, s := range e.entries {
		dst = append(dst, s...)
	}
	return dst
}

// appendPlan appends p's plan record to dst, registering every string in
// the encoder's table.
//
//uplan:hotpath
func (e *encoder) appendPlan(dst []byte, p *core.Plan) ([]byte, error) {
	if p == nil {
		return dst, errors.New("codec: cannot encode a nil plan")
	}
	nodes := p.NodeCount()
	if nodes > maxNodes {
		return dst, fmt.Errorf("codec: plan of %d nodes exceeds the %d-node limit", nodes, maxNodes)
	}
	dst = binary.AppendUvarint(dst, uint64(nodes))
	dst = binary.AppendUvarint(dst, e.ref(p.Source))
	dst = e.appendProps(dst, p.Properties)
	if p.Root != nil {
		dst = e.appendNode(dst, p.Root)
	}
	return dst, e.err
}

// appendNode appends n's node record and, pre-order, its subtree's.
//
//uplan:hotpath
func (e *encoder) appendNode(dst []byte, n *core.Node) []byte {
	if ci := core.CategoryIndex(n.Op.Category); ci >= 0 {
		dst = binary.AppendUvarint(dst, uint64(ci))
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(core.OperationCategories))+e.ref(string(n.Op.Category)))
	}
	dst = binary.AppendUvarint(dst, e.ref(n.Op.Name))
	dst = e.appendProps(dst, n.Properties)
	dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
	for _, c := range n.Children {
		dst = e.appendNode(dst, c)
	}
	return dst
}

// appendProps appends a property-list section: count, then properties.
//
//uplan:hotpath
func (e *encoder) appendProps(dst []byte, props []core.Property) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(props)))
	for i := range props {
		pr := &props[i]
		if ci := core.PropertyCategoryIndex(pr.Category); ci >= 0 {
			dst = binary.AppendUvarint(dst, uint64(ci))
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(core.PropertyCategories))+e.ref(string(pr.Category)))
		}
		dst = binary.AppendUvarint(dst, e.ref(pr.Name))
		dst = e.appendValue(dst, pr.Value)
	}
	return dst
}

// Value kind tags.
const (
	valNull   = 0
	valString = 1
	valFloat  = 2
	valTrue   = 3
	valFalse  = 4
	valZigzag = 5
)

// appendValue appends one value. Integral numbers within float64's exact
// range use the compact zigzag form; the decoder reproduces an equal
// float64 (−0.0 canonicalizes to +0.0, which compares, formats, and
// fingerprints identically).
//
//uplan:hotpath
func (e *encoder) appendValue(dst []byte, v core.Value) []byte {
	switch v.Kind {
	case core.KindString:
		dst = append(dst, valString)
		return binary.AppendUvarint(dst, e.ref(v.Str))
	case core.KindNumber:
		f := v.Num
		if f == math.Trunc(f) && math.Abs(f) <= maxZigzagInt {
			i := int64(f)
			dst = append(dst, valZigzag)
			return binary.AppendUvarint(dst, uint64(i<<1)^uint64(i>>63))
		}
		dst = append(dst, valFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	case core.KindBool:
		if v.Bool {
			return append(dst, valTrue)
		}
		return append(dst, valFalse)
	default:
		return append(dst, valNull)
	}
}

// Encoder encodes plan blobs, reusing its string table and record
// scratch from one plan to the next, so a warm Encoder encodes without
// allocating. The zero value is ready to use. An Encoder is not safe for
// concurrent use.
type Encoder struct {
	enc encoder
	rec []byte
}

// reset clears the table and truncates the scratch for the next plan.
// clear(entries) drops the previous plan's string references, so a pooled
// Encoder does not pin them.
func (e *Encoder) reset() {
	clear(e.enc.index)
	clear(e.enc.entries)
	e.enc.entries = e.enc.entries[:0]
	e.enc.nbytes = 0
	e.enc.err = nil
	e.rec = e.rec[:0]
}

// encode builds p's string table and plan record in the Encoder, ready
// for appendBlob.
//
//uplan:hotpath
func (e *Encoder) encode(p *core.Plan) error {
	e.reset()
	rec, err := e.enc.appendPlan(e.rec, p)
	e.rec = rec
	return err
}

// blobLen is the byte length of the blob appendBlob will write, known
// from the table and record sizes without copying anything.
func (e *Encoder) blobLen() int {
	n := len(planMagic) + 1 + uvarintLen(uint64(len(e.enc.entries))) + e.enc.nbytes + len(e.rec)
	for _, s := range e.enc.entries {
		n += uvarintLen(uint64(len(s)))
	}
	return n
}

// appendBlob appends the encoded blob: header, table, record.
//
//uplan:hotpath
func (e *Encoder) appendBlob(dst []byte) []byte {
	dst = append(dst, planMagic...)
	dst = append(dst, Version)
	dst = e.enc.appendTable(dst)
	return append(dst, e.rec...)
}

// AppendEncode appends p's blob to dst and returns the extended slice. On
// error dst is returned unchanged.
func (e *Encoder) AppendEncode(dst []byte, p *core.Plan) ([]byte, error) {
	if err := e.encode(p); err != nil {
		return dst, err
	}
	return e.appendBlob(slices.Grow(dst, e.blobLen())), nil
}

// AppendEncodeLen appends p's blob behind its uvarint byte length, the
// framing wire formats use to embed blobs. On error dst is returned
// unchanged.
func (e *Encoder) AppendEncodeLen(dst []byte, p *core.Plan) ([]byte, error) {
	if err := e.encode(p); err != nil {
		return dst, err
	}
	n := e.blobLen()
	dst = slices.Grow(dst, uvarintLen(uint64(n))+n)
	dst = binary.AppendUvarint(dst, uint64(n))
	return e.appendBlob(dst), nil
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// Pooled encoders whose table or record scratch grew past these bounds
// are dropped rather than returned, so one huge plan does not pin its
// buffers for the life of the process.
const (
	maxPooledEntries = 1 << 12
	maxPooledRecord  = 1 << 16
)

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

func getEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

func putEncoder(e *Encoder) {
	if cap(e.enc.entries) <= maxPooledEntries && cap(e.rec) <= maxPooledRecord {
		encoderPool.Put(e)
	}
}

// Encode serializes p as a self-contained binary plan blob in an exactly
// sized slice the caller owns. The blob is deterministic: encoding the
// same plan always yields the same bytes, and encode→decode→encode is
// byte-identical.
func Encode(p *core.Plan) ([]byte, error) {
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encode(p); err != nil {
		return nil, err
	}
	return e.appendBlob(make([]byte, 0, e.blobLen())), nil
}

// AppendEncode appends p's blob to dst and returns the extended slice,
// letting callers reuse one buffer across many encodes. It borrows a
// pooled Encoder; a caller encoding many plans in a row can hold its own.
func AppendEncode(dst []byte, p *core.Plan) ([]byte, error) {
	e := getEncoder()
	defer putEncoder(e)
	return e.AppendEncode(dst, p)
}
