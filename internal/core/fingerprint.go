package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sync"
	"unicode/utf8"
)

// Fingerprinting gives QPG (Query Plan Guidance) its core primitive:
// deciding whether a query plan is structurally new. Per Section V-A.1,
// this requires ignoring unstable information — random identifiers,
// estimated costs and cardinalities, and runtime status — while keeping the
// operation tree and, optionally, configuration shape.
//
// The engine is binary and incremental: the tree walk feeds the digest
// directly (no string accumulation), fingerprints are [32]byte SHA-256
// values (FingerprintBytes) or 64-bit FNV-1a values (Fingerprint64, the
// allocation-free fast path), and the hex form exists only as a
// formatting helper. Walk state — the digest, a small write buffer, and
// the property-sorting scratch — is pooled, so fingerprinting a plan on
// the QPG hot loop does not touch the heap (guarded by
// TestFingerprintZeroAllocs; value-including options may still allocate
// when property values need string rendering).

// FingerprintOptions controls which plan details participate in the
// fingerprint. The zero value is the strictest useful setting: operations
// only.
type FingerprintOptions struct {
	// IncludeConfiguration folds Configuration property names (not values)
	// into the fingerprint, so e.g. a scan with a filter differs from one
	// without.
	IncludeConfiguration bool
	// IncludeConfigurationValues additionally folds normalized Configuration
	// values in. Numeric literals inside values are canonicalized to '?' so
	// that predicates differing only in constants collide, mirroring the
	// paper's removal of unstable identifiers.
	IncludeConfigurationValues bool
	// IncludePlanProperties folds plan-associated Configuration property
	// names in.
	IncludePlanProperties bool
}

// fpState carries one fingerprint walk's reusable state. sum64 doubles as
// the FNV-1a accumulator when h is unset for the walk (fast64 mode).
type fpState struct {
	h      hash.Hash  // SHA-256 digest, created once per pooled state
	buf    []byte     // pending bytes between digest writes
	out    []byte     // Sum destination, cap 32, allocated once
	props  []Property // property-sorting scratch
	sum64  uint64
	fast64 bool
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fpFlushLen bounds the pending buffer; past it the bytes stream into
	// the digest. Most plans fit in one flush.
	fpFlushLen = 1024
)

var fpPool = sync.Pool{New: func() any {
	return &fpState{
		h:   sha256.New(),
		buf: make([]byte, 0, fpFlushLen+64),
		out: make([]byte, 0, sha256.Size),
	}
}}

func (w *fpState) flush() {
	if len(w.buf) > 0 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *fpState) writeByte(c byte) {
	if w.fast64 {
		w.sum64 = (w.sum64 ^ uint64(c)) * fnvPrime64
		return
	}
	w.buf = append(w.buf, c)
	if len(w.buf) >= fpFlushLen {
		w.flush()
	}
}

func (w *fpState) writeString(s string) {
	if w.fast64 {
		h := w.sum64
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
		w.sum64 = h
		return
	}
	w.buf = append(w.buf, s...)
	if len(w.buf) >= fpFlushLen {
		w.flush()
	}
}

// writeSortedConfigProps streams the node-or-plan properties of the
// Configuration category, ordered like SortProperties, into the state.
// lead is the byte prefixed to each property; values are appended only
// when withValues is set.
//
//uplan:hotpath
func (w *fpState) writeSortedConfigProps(props []Property, lead byte, withValues bool) {
	if len(props) == 0 {
		return
	}
	// Sort a scratch copy with an in-place insertion sort: properties per
	// node are few, and sort.SliceStable's reflection would allocate.
	sorted := append(w.props[:0], props...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && propLess(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	w.props = sorted // keep any grown capacity for the next node
	for _, pr := range sorted {
		if pr.Category != Configuration {
			continue
		}
		w.writeByte(lead)
		w.writeString(pr.Name)
		if withValues {
			w.writeByte('=')
			w.writeNormalizedValue(pr.Value)
		}
	}
}

// propLess orders properties by category rank and name like
// SortProperties, then breaks ties on the value, so the fingerprint is
// fully independent of property insertion order — even when a node
// carries two same-named configuration properties with different values
// (MySQL title parsing plus the JSON key can produce exactly that).
func propLess(a, b Property) bool {
	ra, aok := propCategoryRank[a.Category]
	rb, bok := propCategoryRank[b.Category]
	if !aok {
		ra = len(propCategoryRank)
	}
	if !bok {
		rb = len(propCategoryRank)
	}
	if ra != rb {
		return ra < rb
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return valueLess(a.Value, b.Value)
}

// valueLess is an arbitrary but deterministic total order on values.
func valueLess(a, b Value) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	switch a.Kind {
	case KindString:
		return a.Str < b.Str
	case KindNumber:
		return a.Num < b.Num
	case KindBool:
		return !a.Bool && b.Bool
	}
	return false
}

// writeNormalizedValue streams a property value with unstable tokens
// canonicalized (see writeNormalized) and the value kind preserved:
// strings are quoted, so Str("5") and Num(5) stay distinct.
//
//uplan:hotpath
func (w *fpState) writeNormalizedValue(v Value) {
	switch v.Kind {
	case KindString:
		w.writeByte('"')
		w.writeNormalized(v.Str)
		w.writeByte('"')
	case KindNumber:
		var tmp [32]byte
		w.writeNormalized(string(appendNumber(tmp[:0], v.Num)))
	case KindBool:
		if v.Bool {
			w.writeString("true")
		} else {
			w.writeString("false")
		}
	default:
		w.writeString("null")
	}
}

// writeNormalized streams s with its unstable tokens canonicalized:
// standalone runs of digits become '?' (random identifiers, literal
// constants, cost numbers), runs of spaces, tabs and newlines collapse
// to one space, and leading and trailing ones drop. Digits directly
// following a letter are kept, so column names like "c0" survive while
// operator suffixes like "TableFullScan_17" normalize. The original QPG
// implementation for TiDB had a bug in exactly this step (Section
// V-A.1); centralizing it here is the paper's argument for the unified
// representation.
//
//uplan:hotpath
func (w *fpState) writeNormalized(s string) {
	inDigits := false
	prevLetter := false
	pendingSpace := false
	wrote := false
	for _, r := range s {
		isLetter := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
		switch {
		case r >= '0' && r <= '9':
			if pendingSpace && wrote {
				w.writeByte(' ')
			}
			pendingSpace = false
			if prevLetter {
				// Digits glued to a letter are part of an identifier.
				w.writeByte(byte(r))
				wrote = true
			} else if !inDigits {
				w.writeByte('?')
				wrote = true
				inDigits = true
			}
		case r == ' ' || r == '\t' || r == '\n':
			inDigits = false
			prevLetter = false
			pendingSpace = true
		default:
			if pendingSpace && wrote {
				w.writeByte(' ')
			}
			pendingSpace = false
			inDigits = false
			prevLetter = isLetter
			if r < 0x80 {
				w.writeByte(byte(r))
			} else {
				var tmp [4]byte
				n := utf8.EncodeRune(tmp[:], r)
				for i := 0; i < n; i++ {
					w.writeByte(tmp[i])
				}
			}
			wrote = true
		}
	}
}

// walkPlan streams the plan's fingerprint token sequence into the state.
// Recursion goes through methods, not a self-referencing closure, so a
// walk performs no hidden allocations.
//
//uplan:hotpath
func (w *fpState) walkPlan(p *Plan, opts FingerprintOptions) {
	w.walkNode(p.Root, opts)
	if opts.IncludePlanProperties {
		w.writeSortedConfigProps(p.Properties, '~', false)
	}
}

//uplan:hotpath
func (w *fpState) walkNode(n *Node, opts FingerprintOptions) {
	if n == nil {
		return
	}
	w.writeByte('(')
	w.writeString(string(n.Op.Category))
	w.writeByte('|')
	w.writeString(n.Op.Name)
	if opts.IncludeConfiguration || opts.IncludeConfigurationValues {
		w.writeSortedConfigProps(n.Properties, ';', opts.IncludeConfigurationValues)
	}
	for _, c := range n.Children {
		w.walkNode(c, opts)
	}
	w.writeByte(')')
}

// FingerprintBytes returns the plan's structural fingerprint under the
// given options as the full 32-byte SHA-256 digest. Two plans share a
// fingerprint iff they are structurally equivalent at the chosen
// granularity.
//
//uplan:hotpath
func (p *Plan) FingerprintBytes(opts FingerprintOptions) [32]byte {
	w := fpPool.Get().(*fpState)
	w.fast64 = false
	w.h.Reset()
	w.buf = w.buf[:0]
	w.walkPlan(p, opts)
	w.flush()
	var out [32]byte
	copy(out[:], w.h.Sum(w.out[:0]))
	fpPool.Put(w)
	return out
}

// Fingerprint64 returns a fast 64-bit FNV-1a fingerprint of the same
// token stream FingerprintBytes hashes. It allocates nothing and is meant
// for in-process sketches and pre-filters; use FingerprintBytes where
// collision resistance matters (FingerprintSet does).
//
//uplan:hotpath
func (p *Plan) Fingerprint64(opts FingerprintOptions) uint64 {
	w := fpPool.Get().(*fpState)
	w.fast64 = true
	w.sum64 = fnvOffset64
	w.walkPlan(p, opts)
	sum := w.sum64
	fpPool.Put(w)
	return sum
}

// Fingerprint returns the fingerprint as a compact hex string — a
// formatting helper over FingerprintBytes for logs and reports.
func (p *Plan) Fingerprint(opts FingerprintOptions) string {
	fp := p.FingerprintBytes(opts)
	return HexFingerprint(fp)
}

// HexFingerprint renders a binary fingerprint in the traditional 32-char
// hex form (the digest's first 16 bytes).
func HexFingerprint(fp [32]byte) string {
	return hex.EncodeToString(fp[:16])
}

// AppendHexFingerprint appends HexFingerprint(fp) to dst.
func AppendHexFingerprint(dst []byte, fp [32]byte) []byte {
	return hex.AppendEncode(dst, fp[:16])
}

// FingerprintSet tracks observed plan fingerprints; it is QPG's coverage
// map. Keys are binary [32]byte digests — the hex rendering exists only
// for display (HexFingerprint). The zero value is not usable; construct
// with NewFingerprintSet.
type FingerprintSet struct {
	opts FingerprintOptions
	seen map[[32]byte]int
}

// NewFingerprintSet returns an empty set using the given options.
func NewFingerprintSet(opts FingerprintOptions) *FingerprintSet {
	return &FingerprintSet{opts: opts, seen: map[[32]byte]int{}}
}

// Observe records the plan's fingerprint and reports whether it was new.
// The hit path — a fingerprint already in the set — is allocation-free.
//
//uplan:hotpath
func (s *FingerprintSet) Observe(p *Plan) bool {
	return s.ObserveKey(p.FingerprintBytes(s.opts))
}

// ObserveKey records a raw fingerprint key and reports whether it was
// new. It is the recovery/seeding entry point: a persistent plan store
// replays logged keys through it without re-walking (or even having) the
// plans they came from.
func (s *FingerprintSet) ObserveKey(fp [32]byte) bool {
	s.seen[fp]++
	return s.seen[fp] == 1
}

// Key returns the fingerprint key Observe would record for the plan —
// the [32]byte digest under the set's options.
func (s *FingerprintSet) Key(p *Plan) [32]byte { return p.FingerprintBytes(s.opts) }

// Size returns the number of distinct fingerprints observed.
func (s *FingerprintSet) Size() int { return len(s.seen) }

// Count returns how many times the plan's fingerprint has been observed.
// It is allocation-free.
func (s *FingerprintSet) Count(p *Plan) int { return s.seen[p.FingerprintBytes(s.opts)] }
