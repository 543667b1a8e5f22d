package core

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxNestingDepth bounds nesting in the structured decoders, JSON objects
// and arrays (JSONReader) and XML elements (the XML converters' scanner),
// like the 10,000 limits of encoding/json and encoding/xml, so adversarial
// input exhausts neither the scanners' nor the node builders' recursion.
const MaxNestingDepth = 10000

// JSONReader is the library's one JSON reader, a streaming token walker
// over an input string. The structured converters build nodes straight
// from it, ParseJSON reads the unified plan's own JSON with it, and the
// plan service reads its wire bodies with it. It builds no map[string]any
// trees and no token stream: object keys and escape-free strings are
// substrings of the input, and scalars are read in place.
//
// It accepts exactly the JSON grammar: strict number syntax, escape
// validation, no control characters inside strings, and at most
// MaxNestingDepth nested objects and arrays. Two things differ from
// encoding/json's struct decoding: the caller matches object keys with
// exact case, and strings with invalid UTF-8 pass through unchanged
// instead of becoming U+FFFD.
//
// A reader walks one value: the caller consumes each value with exactly
// one of Object, Array, String, Bool, Number, Raw or Skip (after Null, if
// null is allowed there, or after Peek to choose), and finishes with End
// when nothing may follow the value.
type JSONReader struct {
	s     string
	pos   int
	depth int
	// ar, when non-nil, interns the escaped strings the reader must
	// build, so repeated values across a batch share one canonical copy.
	// Escape-free substrings bypass it: interning them would add a copy
	// rather than remove one.
	ar *PlanArena
}

// NewJSONReader returns a reader over s that interns the strings it
// builds through ar (nil: the heap).
func NewJSONReader(s string, ar *PlanArena) JSONReader { return JSONReader{s: s, ar: ar} }

// errf reports a scan error with the current byte offset.
func (r *JSONReader) errf(format string, args ...any) error {
	return fmt.Errorf("json offset %d: %s", r.pos, fmt.Sprintf(format, args...))
}

var errJSONEOF = fmt.Errorf("json: unexpected end of input")

// skipSpace advances past insignificant whitespace. The indented JSON
// real engines emit is mostly whitespace, so this is the reader's single
// hottest loop; it runs on locals and writes pos back once.
func (r *JSONReader) skipSpace() {
	s, i := r.s, r.pos
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	r.pos = i
}

// Peek returns the first byte of the next value without consuming it, or
// 0 at end of input.
func (r *JSONReader) Peek() byte {
	r.skipSpace()
	if r.pos >= len(r.s) {
		return 0
	}
	return r.s[r.pos]
}

// expect consumes the next significant byte, which must be c.
func (r *JSONReader) expect(c byte) error {
	r.skipSpace()
	if r.pos >= len(r.s) {
		return errJSONEOF
	}
	if r.s[r.pos] != c {
		return r.errf("want %q, have %q", c, r.s[r.pos])
	}
	r.pos++
	return nil
}

// Null consumes a null literal if one is next and reports whether it did.
func (r *JSONReader) Null() bool {
	return r.Peek() == 'n' && r.literal("null") == nil
}

// Object consumes an object, calling field once per key in input order;
// field must consume the key's value. A null is consumed without calling
// field, as encoding/json leaves a struct alone on null.
//
//uplan:hotpath
func (r *JSONReader) Object(field func(key string) error) error {
	if r.Null() {
		return nil
	}
	if err := r.expect('{'); err != nil {
		return err
	}
	r.depth++
	defer func() { r.depth-- }()
	if r.depth > MaxNestingDepth {
		return r.errf("exceeded max nesting depth")
	}
	if r.Peek() == '}' {
		r.pos++
		return nil
	}
	for {
		if err := r.expect('"'); err != nil {
			return err
		}
		key, err := r.scanString()
		if err != nil {
			return err
		}
		if err := r.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch r.Peek() {
		case ',':
			r.pos++
		case '}':
			r.pos++
			return nil
		case 0:
			return errJSONEOF
		default:
			return r.errf("want ',' or '}', have %q", r.s[r.pos])
		}
	}
}

// Array consumes an array, calling elem once per element with its index;
// elem must consume the element. The caller checks Null first when null
// is allowed.
//
//uplan:hotpath
func (r *JSONReader) Array(elem func(i int) error) error {
	if err := r.expect('['); err != nil {
		return err
	}
	r.depth++
	defer func() { r.depth-- }()
	if r.depth > MaxNestingDepth {
		return r.errf("exceeded max nesting depth")
	}
	if r.Peek() == ']' {
		r.pos++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		switch r.Peek() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			return nil
		case 0:
			return errJSONEOF
		default:
			return r.errf("want ',' or ']', have %q", r.s[r.pos])
		}
	}
}

// String consumes a string into *dst. A null is consumed and leaves *dst
// unchanged, as encoding/json does.
//
//uplan:hotpath
func (r *JSONReader) String(dst *string) error {
	if r.Null() {
		return nil
	}
	if err := r.expect('"'); err != nil {
		return err
	}
	s, err := r.scanString()
	if err == nil {
		*dst = s
	}
	return err
}

// scanString reads a string whose opening quote was consumed. A string
// without escapes, the common case for keys and values alike, is a
// substring of the input and costs no allocation.
//
//uplan:hotpath
func (r *JSONReader) scanString() (string, error) {
	s := r.s
	start := r.pos
	for i := start; i < len(s); i++ {
		c := s[i]
		if c == '"' {
			r.pos = i + 1
			return s[start:i], nil
		}
		if c == '\\' {
			r.pos = i
			return r.unescapeString(start)
		}
		if c < 0x20 {
			r.pos = i
			return "", r.errf("control character %#x in string", c)
		}
	}
	r.pos = len(s)
	return "", errJSONEOF
}

// unescapeString handles the slow path of scanString: pos sits on the
// first backslash, start marks the byte after the opening quote. A string
// whose raw text fits the arena's intern cap decodes into a stack buffer
// and is interned from it; a longer one, such as a plan carried inside a
// request body, is built once in a builder sized by its raw length, which
// bounds its decoded length.
//
//uplan:hotpath
func (r *JSONReader) unescapeString(start int) (string, error) {
	end := r.pos
	for end < len(r.s) && r.s[end] != '"' {
		if r.s[end] == '\\' {
			end++
		}
		end++
	}
	if n := min(end, len(r.s)) - start; n > arenaMaxIntern {
		var sb strings.Builder
		sb.Grow(n)
		_, err := r.unescape(start, nil, &sb)
		return r.ar.Intern(sb.String()), err
	}
	var stack [arenaMaxIntern]byte
	b, err := r.unescape(start, stack[:0], nil)
	if err != nil {
		return "", err
	}
	return r.ar.InternBytes(b), nil
}

// unescape decodes the string from start up to and past its closing
// quote, pos on its first backslash, appending to b or, when sb is
// non-nil, writing to sb.
func (r *JSONReader) unescape(start int, b []byte, sb *strings.Builder) ([]byte, error) {
	s := r.s
	plain := start // the pending run of bytes that need no decoding
	for i := r.pos; i < len(s); {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			i++
			continue
		}
		if sb != nil {
			sb.WriteString(s[plain:i])
		} else {
			b = append(b, s[plain:i]...)
		}
		r.pos = i
		if c == '"' {
			r.pos++
			return b, nil
		}
		if c < 0x20 {
			return b, r.errf("control character %#x in string", c)
		}
		ch, err := r.escape()
		if err != nil {
			return b, err
		}
		if sb != nil {
			sb.WriteRune(ch)
		} else {
			b = utf8.AppendRune(b, ch)
		}
		i, plain = r.pos, r.pos
	}
	r.pos = len(s)
	return b, errJSONEOF
}

// escape decodes the escape sequence whose backslash is at pos.
func (r *JSONReader) escape() (rune, error) {
	r.pos++
	if r.pos >= len(r.s) {
		return 0, errJSONEOF
	}
	esc := r.s[r.pos]
	r.pos++
	switch esc {
	case '"', '\\', '/':
		return rune(esc), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		ch, err := r.hexRune()
		if err != nil || !utf16.IsSurrogate(ch) {
			return ch, err
		}
		// Like encoding/json: consume the following \u escape only when
		// it completes the pair; otherwise yield one replacement rune and
		// leave the second escape to be decoded on its own, so the escape
		// sequence D800 D800 DC00 decodes to U+FFFD then U+10000.
		if r.pos+1 < len(r.s) && r.s[r.pos] == '\\' && r.s[r.pos+1] == 'u' {
			save := r.pos
			r.pos += 2
			ch2, err := r.hexRune()
			if err != nil {
				return 0, err
			}
			if dec := utf16.DecodeRune(ch, ch2); dec != utf8.RuneError {
				return dec, nil
			}
			r.pos = save
		}
		return utf8.RuneError, nil
	}
	return 0, r.errf("invalid escape \\%c", esc)
}

// hexRune reads the four hex digits of a \u escape.
func (r *JSONReader) hexRune() (rune, error) {
	if r.pos+4 > len(r.s) {
		return 0, errJSONEOF
	}
	u, err := strconv.ParseUint(r.s[r.pos:r.pos+4], 16, 16)
	if err != nil {
		return 0, r.errf("invalid \\u escape %q", r.s[r.pos:r.pos+4])
	}
	r.pos += 4
	return rune(u), nil
}

// Number consumes a number and returns its literal text, a substring of
// the input; the caller parses it.
func (r *JSONReader) Number() (string, error) {
	r.skipSpace()
	s, start, i := r.s, r.pos, r.pos
	digits := func() bool {
		j := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	bad := ""
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		bad = "invalid number"
	}
	if i < len(s) && s[i] == '.' && bad == "" {
		if i++; !digits() {
			bad = "invalid number: no digits after '.'"
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') && bad == "" {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			bad = "invalid number: empty exponent"
		}
	}
	if r.pos = i; bad != "" {
		return "", r.errf("%s", bad)
	}
	return s[start:i], nil
}

// Bool consumes true or false.
func (r *JSONReader) Bool() (bool, error) {
	if r.Peek() == 't' {
		return true, r.literal("true")
	}
	return false, r.literal("false")
}

// literal consumes the keyword lit.
func (r *JSONReader) literal(lit string) error {
	r.skipSpace()
	if !strings.HasPrefix(r.s[r.pos:], lit) {
		return r.errf("invalid literal")
	}
	r.pos += len(lit)
	return nil
}

// Raw consumes any value and returns its exact source text, as
// json.RawMessage keeps it.
func (r *JSONReader) Raw() (string, error) {
	r.skipSpace()
	start := r.pos
	if err := r.Skip(); err != nil {
		return "", err
	}
	return r.s[start:r.pos], nil
}

// Skip consumes and validates any value without building it.
func (r *JSONReader) Skip() error {
	switch r.Peek() {
	case 0:
		return errJSONEOF
	case 'n':
		return r.literal("null")
	case 't', 'f':
		_, err := r.Bool()
		return err
	case '"':
		r.pos++
		_, err := r.scanString()
		return err
	case '{':
		return r.Object(func(string) error { return r.Skip() })
	case '[':
		return r.Array(func(int) error { return r.Skip() })
	default:
		_, err := r.Number()
		return err
	}
}

// End requires that nothing but whitespace follows the value read. It
// checks the position directly: Peek's 0 would conflate a NUL byte with
// the end of input.
func (r *JSONReader) End() error {
	r.skipSpace()
	if r.pos < len(r.s) {
		return r.errf("trailing data after the JSON value")
	}
	return nil
}
