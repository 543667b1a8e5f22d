package convert

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"uplan/internal/core"
)

// jsonScan is a streaming JSON token walker over an input string. The
// structured converters (PostgreSQL, MySQL, TiDB, MongoDB, Neo4j) feed
// core.Node construction directly from it, so a conversion never builds
// the intermediate map[string]any / []any trees that encoding/json's
// generic decoding allocates: object keys and escape-free strings are
// substrings of the input, scalars parse in place, and composite property
// values are captured as compacted raw JSON in a single pass.
//
// The scanner accepts exactly the JSON grammar (strict number syntax,
// escape validation, no control characters inside strings) so malformed
// input fails like the encoding/json path did instead of silently
// producing half a plan. It does not require EOF after the top-level
// value, matching json.Decoder.Decode; converters whose legacy decoder
// was json.Unmarshal call requireEOF explicitly. Two deliberate
// divergences from encoding/json: raw string bytes pass through without
// invalid-UTF-8 coercion to U+FFFD (JSON input is UTF-8 by spec; garbage
// bytes stay garbage instead of being silently rewritten), and composite
// property values keep their source key order and escaping (see
// scanRawCompact) rather than being re-marshaled.
type jsonScan struct {
	s     string
	pos   int
	depth int
	// ar, when non-nil, interns the strings the scanner must materialize
	// (escaped strings, re-compacted composites), so repeated dynamic
	// values across a batch share one canonical copy instead of retaining
	// a fresh build each. Zero-copy substrings bypass it: interning them
	// would add a copy rather than remove one.
	ar *core.PlanArena
}

func newJSONScan(s string) jsonScan { return jsonScan{s: s} }

// errf reports a scan error with the current byte offset.
func (sc *jsonScan) errf(format string, args ...any) error {
	return fmt.Errorf("json offset %d: %s", sc.pos, fmt.Sprintf(format, args...))
}

var errJSONEOF = fmt.Errorf("json: unexpected end of input")

// skipSpace advances past insignificant whitespace. The indented JSON
// real engines emit is mostly whitespace, so this is the scanner's
// single hottest loop; it runs on locals and writes pos back once.
func (sc *jsonScan) skipSpace() {
	s, i := sc.s, sc.pos
	for i < len(s) {
		c := s[i]
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
		i++
	}
	sc.pos = i
}

// peek returns the first significant byte without consuming it, or 0 at
// end of input.
func (sc *jsonScan) peek() byte {
	sc.skipSpace()
	if sc.pos >= len(sc.s) {
		return 0
	}
	return sc.s[sc.pos]
}

// expect consumes the next significant byte, which must be c.
func (sc *jsonScan) expect(c byte) error {
	sc.skipSpace()
	if sc.pos >= len(sc.s) {
		return errJSONEOF
	}
	if sc.s[sc.pos] != c {
		return sc.errf("want %q, have %q", c, sc.s[sc.pos])
	}
	sc.pos++
	return nil
}

// scanObject parses an object, invoking fn once per key. fn must consume
// the key's value (scanValue, scanString, scanObject, scanArray,
// scanRawCompact, or skipValue).
//
//uplan:hotpath
func (sc *jsonScan) scanObject(fn func(key string) error) error {
	if err := sc.expect('{'); err != nil {
		return err
	}
	sc.depth++
	defer func() { sc.depth-- }()
	if sc.depth > maxDepth {
		return sc.errf("exceeded max nesting depth")
	}
	if sc.peek() == '}' {
		sc.pos++
		return nil
	}
	for {
		key, err := sc.scanString()
		if err != nil {
			return err
		}
		if err := sc.expect(':'); err != nil {
			return err
		}
		if err := fn(key); err != nil {
			return err
		}
		sc.skipSpace()
		if sc.pos >= len(sc.s) {
			return errJSONEOF
		}
		switch sc.s[sc.pos] {
		case ',':
			sc.pos++
		case '}':
			sc.pos++
			return nil
		default:
			return sc.errf("want ',' or '}', have %q", sc.s[sc.pos])
		}
	}
}

// scanArray parses an array, invoking fn once per element with its index.
// fn must consume the element.
//
//uplan:hotpath
func (sc *jsonScan) scanArray(fn func(i int) error) error {
	if err := sc.expect('['); err != nil {
		return err
	}
	sc.depth++
	defer func() { sc.depth-- }()
	if sc.depth > maxDepth {
		return sc.errf("exceeded max nesting depth")
	}
	if sc.peek() == ']' {
		sc.pos++
		return nil
	}
	for i := 0; ; i++ {
		if err := fn(i); err != nil {
			return err
		}
		sc.skipSpace()
		if sc.pos >= len(sc.s) {
			return errJSONEOF
		}
		switch sc.s[sc.pos] {
		case ',':
			sc.pos++
		case ']':
			sc.pos++
			return nil
		default:
			return sc.errf("want ',' or ']', have %q", sc.s[sc.pos])
		}
	}
}

// scanString parses a JSON string. Strings without escapes — the common
// case for both object keys and values — are returned as substrings of
// the input without allocating.
//
//uplan:hotpath
func (sc *jsonScan) scanString() (string, error) {
	if err := sc.expect('"'); err != nil {
		return "", err
	}
	s := sc.s
	start := sc.pos
	for i := start; i < len(s); i++ {
		c := s[i]
		if c == '"' {
			sc.pos = i + 1
			return s[start:i], nil
		}
		if c == '\\' {
			sc.pos = i
			return sc.unescapeString(start)
		}
		if c < 0x20 {
			sc.pos = i
			return "", sc.errf("control character %#x in string", c)
		}
	}
	sc.pos = len(s)
	return "", errJSONEOF
}

// unescapeString handles the slow path of scanString: sc.pos sits on the
// first backslash, start marks the byte after the opening quote.
//
//uplan:hotpath
func (sc *jsonScan) unescapeString(start int) (string, error) {
	var b strings.Builder
	// Grow for this string's raw length, which bounds its decoded
	// length, so a long escaped string (a plan carried inside a JSON
	// request body) is built without regrowing — but not for the rest of
	// the document, which would pin a near-document-sized buffer behind
	// every short escaped string (Builder.String keeps the final buffer).
	end := sc.pos
	for end < len(sc.s) && sc.s[end] != '"' {
		if sc.s[end] == '\\' {
			end++
		}
		end++
	}
	b.Grow(min(end, len(sc.s)) - start)
	b.WriteString(sc.s[start:sc.pos])
	for sc.pos < len(sc.s) {
		c := sc.s[sc.pos]
		switch {
		case c == '"':
			sc.pos++
			return sc.ar.Intern(b.String()), nil
		case c == '\\':
			sc.pos++
			if sc.pos >= len(sc.s) {
				return "", errJSONEOF
			}
			esc := sc.s[sc.pos]
			sc.pos++
			switch esc {
			case '"', '\\', '/':
				b.WriteByte(esc)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r, err := sc.scanHexRune()
				if err != nil {
					return "", err
				}
				if utf16.IsSurrogate(r) {
					// Like encoding/json: consume the following \u escape
					// only when it completes the pair; otherwise emit one
					// replacement rune and let the main loop reprocess the
					// second escape on its own, so the escape sequence
					// D800 D800 DC00 decodes to U+FFFD then U+10000.
					paired := false
					if sc.pos+1 < len(sc.s) && sc.s[sc.pos] == '\\' && sc.s[sc.pos+1] == 'u' {
						save := sc.pos
						sc.pos += 2
						r2, err := sc.scanHexRune()
						if err != nil {
							return "", err
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							r, paired = dec, true
						} else {
							sc.pos = save
						}
					}
					if !paired {
						r = utf8.RuneError
					}
				}
				b.WriteRune(r)
			default:
				return "", sc.errf("invalid escape \\%c", esc)
			}
		case c < 0x20:
			return "", sc.errf("control character %#x in string", c)
		default:
			// Copy the run of plain bytes up to the next quote, escape or
			// control character in one write.
			run := sc.pos + 1
			for run < len(sc.s) && sc.s[run] != '"' && sc.s[run] != '\\' && sc.s[run] >= 0x20 {
				run++
			}
			b.WriteString(sc.s[sc.pos:run])
			sc.pos = run
		}
	}
	return "", errJSONEOF
}

// requireEOF errors unless only whitespace remains after the value just
// read (a plan, or a wire body), for formats whose legacy decoder
// (json.Unmarshal) consumed the entire input and rejected trailing
// garbage. It checks the position directly — peek's 0 return would
// conflate a literal NUL byte with end of input.
func (sc *jsonScan) requireEOF(what string) error {
	sc.skipSpace()
	if sc.pos < len(sc.s) {
		return sc.errf("trailing data after %s", what)
	}
	return nil
}

// scanHexRune reads the four hex digits of a \u escape.
func (sc *jsonScan) scanHexRune() (rune, error) {
	if sc.pos+4 > len(sc.s) {
		return 0, errJSONEOF
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := sc.s[sc.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, sc.errf("invalid \\u escape digit %q", c)
		}
	}
	sc.pos += 4
	return r, nil
}

// scanNumberLiteral validates and consumes a JSON number, returning its
// literal text as a substring of the input.
func (sc *jsonScan) scanNumberLiteral() (string, error) {
	sc.skipSpace()
	start := sc.pos
	i := sc.pos
	n := len(sc.s)
	if i < n && sc.s[i] == '-' {
		i++
	}
	switch {
	case i < n && sc.s[i] == '0':
		i++
	case i < n && sc.s[i] >= '1' && sc.s[i] <= '9':
		for i < n && sc.s[i] >= '0' && sc.s[i] <= '9' {
			i++
		}
	default:
		sc.pos = i
		return "", sc.errf("invalid number")
	}
	if i < n && sc.s[i] == '.' {
		i++
		if i >= n || sc.s[i] < '0' || sc.s[i] > '9' {
			sc.pos = i
			return "", sc.errf("invalid number: no digits after '.'")
		}
		for i < n && sc.s[i] >= '0' && sc.s[i] <= '9' {
			i++
		}
	}
	if i < n && (sc.s[i] == 'e' || sc.s[i] == 'E') {
		i++
		if i < n && (sc.s[i] == '+' || sc.s[i] == '-') {
			i++
		}
		if i >= n || sc.s[i] < '0' || sc.s[i] > '9' {
			sc.pos = i
			return "", sc.errf("invalid number: empty exponent")
		}
		for i < n && sc.s[i] >= '0' && sc.s[i] <= '9' {
			i++
		}
	}
	sc.pos = i
	return sc.s[start:i], nil
}

// scanLiteral consumes the keyword lit ("true", "false", "null").
func (sc *jsonScan) scanLiteral(lit string) error {
	sc.skipSpace()
	if !strings.HasPrefix(sc.s[sc.pos:], lit) {
		return sc.errf("invalid literal")
	}
	sc.pos += len(lit)
	return nil
}

// scanValue consumes any JSON value and converts it with the scalar
// semantics the map-based decoders used (scalarFromJSON): null → Null,
// booleans → Bool, numbers → Num (literal text kept when the value
// overflows float64), strings → parseScalar of the decoded text. A
// composite value (object or array) becomes a string of its compacted raw
// JSON — captured in one pass instead of the decode-then-re-Marshal round
// trip of the legacy path.
func (sc *jsonScan) scanValue() (core.Value, error) {
	switch sc.peek() {
	case 0:
		return core.Null(), errJSONEOF
	case 'n':
		return core.Null(), sc.scanLiteral("null")
	case 't':
		return core.BoolVal(true), sc.scanLiteral("true")
	case 'f':
		return core.BoolVal(false), sc.scanLiteral("false")
	case '"':
		s, err := sc.scanString()
		if err != nil {
			return core.Null(), err
		}
		return parseScalar(s), nil
	case '{', '[':
		raw, err := sc.scanRawCompact()
		if err != nil {
			return core.Null(), err
		}
		return core.Str(raw), nil
	default:
		lit, err := sc.scanNumberLiteral()
		if err != nil {
			return core.Null(), err
		}
		f, perr := strconv.ParseFloat(lit, 64)
		if perr != nil {
			return core.Str(lit), nil
		}
		return core.Num(f), nil
	}
}

// scanStringValue consumes the next value. If it is a JSON string it
// returns (decoded, true); any other valid value is consumed and reported
// as (_, false), mirroring the legacy decoders' ignored type assertions.
func (sc *jsonScan) scanStringValue() (string, bool, error) {
	if sc.peek() == '"' {
		s, err := sc.scanString()
		return s, err == nil, err
	}
	return "", false, sc.skipValue()
}

// skipValue consumes and validates any JSON value without materializing it.
func (sc *jsonScan) skipValue() error {
	switch sc.peek() {
	case 0:
		return errJSONEOF
	case 'n':
		return sc.scanLiteral("null")
	case 't':
		return sc.scanLiteral("true")
	case 'f':
		return sc.scanLiteral("false")
	case '"':
		_, err := sc.scanString()
		return err
	case '{':
		return sc.scanObject(func(string) error { return sc.skipValue() })
	case '[':
		return sc.scanArray(func(int) error { return sc.skipValue() })
	default:
		_, err := sc.scanNumberLiteral()
		return err
	}
}

// scanRawCompact consumes the next composite value and returns its raw
// JSON with insignificant whitespace removed. When the input is already
// compact the result is a substring and nothing is copied.
func (sc *jsonScan) scanRawCompact() (string, error) {
	sc.skipSpace()
	start := sc.pos
	if err := sc.skipValue(); err != nil {
		return "", err
	}
	raw := sc.s[start:sc.pos]
	if !hasJSONSpace(raw) {
		return raw, nil
	}
	var b strings.Builder
	b.Grow(len(raw))
	inString := false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if inString {
			b.WriteByte(c)
			if c == '\\' {
				// Copy the escaped byte verbatim; skipValue already
				// validated the escape sequence.
				i++
				if i < len(raw) {
					b.WriteByte(raw[i])
				}
			} else if c == '"' {
				inString = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			inString = true
		}
		b.WriteByte(c)
	}
	return sc.ar.Intern(b.String()), nil
}

// hasJSONSpace reports whether s contains any byte scanRawCompact would
// strip outside of strings; a quick scan that tolerates false positives
// (whitespace inside strings just means one extra copy).
func hasJSONSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			return true
		}
	}
	return false
}
