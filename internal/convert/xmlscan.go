package convert

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"uplan/internal/core"
)

// xmlScan is a single-pass XML tokenizer over an input string, the XML
// counterpart of core.JSONReader. The PostgreSQL and SQL Server XML converters
// pull elements, attributes and character data from it and build
// core.Nodes straight into the caller's arena, so a conversion builds no
// intermediate element tree, copies no inner XML, and reads every byte
// once. Names, attribute values and character data are substrings of the
// input; only a value holding a reference (&amp; …) or a carriage return
// is rebuilt, and that result is interned through the arena.
//
// The scanner checks well-formedness the way encoding/xml's strict
// decoder does: names, quoted attribute values, the five predefined
// entities and character references to legal XML characters, UTF-8 and
// the XML character range, "]]>" outside CDATA, "--" inside comments,
// matching end tags, and core.MaxNestingDepth, the JSON reader's nesting
// cap. Namespaced names are reduced to their local part, "\r\n" and lone
// '\r' to '\n'. The <?xml …?> declaration, other processing instructions
// and comments are skipped; CDATA sections are character data.
//
// Deliberate divergences from the encoding/xml decoders the converters
// used before: the whole input must be one well-formed document (one
// element, surrounded only by whitespace, comments and processing
// instructions), where xml.Unmarshal stopped reading at the end of the
// first element and the SQL Server path at the end of the first RelOp;
// <!DOCTYPE …> and other declarations are rejected rather than skipped;
// a declared encoding is not interpreted (the input is a Go string and
// read as UTF-8); and multi-byte name characters are checked against the
// Unicode letter, digit and mark classes rather than XML 1.0's tables.
type xmlScan struct {
	s     string
	pos   int
	depth int
	// inTag is set while the attributes of the last start tag read are
	// still pending; empty records that the tag ended in "/>".
	inTag, empty bool
	ar           *core.PlanArena
}

func newXMLScan(s string, ar *core.PlanArena) xmlScan { return xmlScan{s: s, ar: ar} }

// errf reports a scan error with the current byte offset.
func (sc *xmlScan) errf(format string, args ...any) error {
	return fmt.Errorf("xml offset %d: %s", sc.pos, fmt.Sprintf(format, args...))
}

var errXMLEOF = errors.New("xml: unexpected end of input")

// xmlItem is the kind of one piece of an element's content.
type xmlItem uint8

const (
	xmlEnd   xmlItem = iota // the element's end tag, consumed
	xmlChild                // a child's start tag; its attributes are pending
	xmlText                 // character data or a CDATA section
)

// xmlNameByte marks the bytes a name is made of. The bytes of multi-byte
// runes are collected too and checked as runes by xmlWideName.
var xmlNameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
	return t
}()

// xmlTextStop marks the bytes run must look at: markup and reference
// starts, '>' (for "]]>"), carriage returns, the other control
// characters, and the lead bytes of multi-byte runes.
var xmlTextStop = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c == '<' || c == '&' || c == '>' || c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf
	}
	return t
}()

// xmlChar reports whether r is in XML 1.0's Char production.
func xmlChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= unicode.MaxRune
}

// skipSpace advances past XML whitespace.
func (sc *xmlScan) skipSpace() {
	s, i := sc.s, sc.pos
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	sc.pos = i
}

// name reads the name at pos. It must start with a letter, '_' or ':'
// and may hold one ':' between a namespace prefix and the local part,
// which local returns; a leading or trailing ':' belongs to the name.
//
//uplan:hotpath
func (sc *xmlScan) name() (raw, local string, err error) {
	s, start := sc.s, sc.pos
	i, colon, wide := start, -1, false
	for i < len(s) && xmlNameByte[s[i]] {
		switch c := s[i]; {
		case c == ':':
			if colon >= 0 {
				sc.pos = i
				return "", "", sc.errf("name with more than one ':'")
			}
			colon = i
		case c >= utf8.RuneSelf:
			wide = true
		}
		i++
	}
	raw = s[start:i]
	if raw == "" {
		if i >= len(s) {
			return "", "", errXMLEOF
		}
		return "", "", sc.errf("expected a name, have %q", s[i])
	}
	if wide {
		if !xmlWideName(raw) {
			return "", "", sc.errf("invalid name %q", raw)
		}
	} else if c := raw[0]; !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == ':') {
		return "", "", sc.errf("invalid name %q", raw)
	}
	sc.pos = i
	local = raw
	if colon > start && colon < i-1 {
		local = s[colon+1 : i]
	}
	return raw, local, nil
}

// xmlWideName checks a name holding multi-byte runes: valid UTF-8 that
// starts with a letter, '_' or ':' and goes on with letters, digits,
// marks, U+00B7 and the ASCII name punctuation.
func xmlWideName(raw string) bool {
	if !utf8.ValidString(raw) {
		return false
	}
	for i, r := range raw {
		switch {
		case unicode.IsLetter(r) || r == '_' || r == ':':
		case i == 0:
			return false
		case unicode.IsDigit(r) || unicode.In(r, unicode.Mn, unicode.Mc) ||
			r == '.' || r == '-' || r == 0xB7:
		default:
			return false
		}
	}
	return true
}

// wideRune checks the multi-byte rune at the start of s and returns its
// size, or 0 if it is invalid UTF-8 or outside the XML character range.
func wideRune(s string) int {
	r, size := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && size == 1 || !xmlChar(r) {
		return 0
	}
	return size
}

// xmlRef decodes the reference at the start of s (s[0] == '&'): one of
// the five predefined entities, or a decimal or hexadecimal character
// reference to a legal XML character. n is the reference's length; ok is
// false for anything else, which well-formed XML rejects. A surrogate
// code point decodes to U+FFFD, as string(rune(n)) does.
func xmlRef(s string) (r rune, n int, ok bool) {
	if len(s) > 1 && s[1] == '#' {
		i, base := 2, rune(10)
		if i < len(s) && s[i] == 'x' {
			i, base = 3, 16
		}
		digits := i
		for ; i < len(s); i++ {
			var d rune
			switch c := s[i]; {
			case '0' <= c && c <= '9':
				d = rune(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				d = rune(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				d = rune(c-'A') + 10
			default:
				d = -1
			}
			if d < 0 {
				break
			}
			if r <= unicode.MaxRune { // stop growing once out of range
				r = r*base + d
			}
		}
		if i == digits || i >= len(s) || s[i] != ';' || r > unicode.MaxRune {
			return 0, 0, false
		}
		if utf16.IsSurrogate(r) {
			r = utf8.RuneError
		}
		return r, i + 1, xmlChar(r)
	}
	end := strings.IndexByte(s[:min(len(s), len("&quot;"))], ';')
	if end < 0 {
		return 0, 0, false
	}
	switch s[1:end] {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, 0, false
	}
	return r, end + 1, true
}

// run scans character data from pos: up to the next '<' when quote is 0,
// else up to and past the closing quote of an attribute value, inside
// which '<' is an error and "]]>" allowed.
//
//uplan:hotpath
func (sc *xmlScan) run(quote byte) (string, error) {
	s, start := sc.s, sc.pos
	i, esc := start, false
scan:
	for {
		for i < len(s) && !xmlTextStop[s[i]] && s[i] != quote {
			i++
		}
		if i >= len(s) {
			if quote != 0 {
				sc.pos = i
				return "", errXMLEOF
			}
			break
		}
		switch c := s[i]; {
		case c == quote && quote != 0:
			break scan
		case c == '<':
			if quote == 0 {
				break scan
			}
			sc.pos = i
			return "", sc.errf("'<' inside an attribute value")
		case c == '&':
			_, n, ok := xmlRef(s[i:])
			if !ok {
				sc.pos = i
				return "", sc.errf("invalid character reference")
			}
			i += n
			esc = true
			continue
		case c == '>':
			if quote == 0 && i-start >= 2 && s[i-1] == ']' && s[i-2] == ']' {
				sc.pos = i
				return "", sc.errf(`"]]>" outside a CDATA section`)
			}
		case c == '\r':
			esc = true
		case c >= utf8.RuneSelf:
			n := wideRune(s[i:])
			if n == 0 {
				sc.pos = i
				return "", sc.errf("invalid UTF-8 or illegal character")
			}
			i += n
			continue
		default:
			sc.pos = i
			return "", sc.errf("illegal character %#x", c)
		}
		i++
	}
	raw := s[start:i]
	if quote != 0 {
		i++ // the closing quote
	}
	sc.pos = i
	if esc {
		return sc.decode(raw, false), nil
	}
	return raw, nil
}

// cdata reads a CDATA section's text; pos is just past "<![CDATA[".
//
//uplan:hotpath
func (sc *xmlScan) cdata() (string, error) {
	s, start := sc.s, sc.pos
	k := strings.Index(s[start:], "]]>")
	if k < 0 {
		sc.pos = len(s)
		return "", errXMLEOF
	}
	raw, esc := s[start:start+k], false
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\r':
			esc = true
		case c >= utf8.RuneSelf:
			n := wideRune(raw[i:])
			if n == 0 {
				sc.pos = start + i
				return "", sc.errf("invalid UTF-8 or illegal character")
			}
			i += n
			continue
		case c < 0x20 && c != '\t' && c != '\n':
			sc.pos = start + i
			return "", sc.errf("illegal character %#x", c)
		}
		i++
	}
	sc.pos = start + k + len("]]>")
	if esc {
		return sc.decode(raw, true), nil
	}
	return raw, nil
}

// decode expands the references of a validated segment (none in CDATA)
// and normalizes its line ends, "\r\n" and lone '\r' becoming '\n'. The
// result is built on the stack when it fits and interned through the
// arena, so a repeated escaped value costs no allocation once the arena
// has seen it.
//
//uplan:hotpath
func (sc *xmlScan) decode(raw string, cdata bool) string {
	var stack [128]byte
	b := stack[:0]
	if len(raw) > len(stack) { // decoding never lengthens a segment
		b = make([]byte, 0, len(raw))
	}
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '&' && !cdata:
			r, n, _ := xmlRef(raw[i:])
			b = utf8.AppendRune(b, r)
			i += n
		case c == '\r':
			b = append(b, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		default:
			b = append(b, c)
			i++
		}
	}
	return sc.ar.InternBytes(b)
}

// skipComment consumes a comment; pos is just past "<!--".
func (sc *xmlScan) skipComment() error {
	k := strings.Index(sc.s[sc.pos:], "--")
	if k < 0 {
		sc.pos = len(sc.s)
		return errXMLEOF
	}
	sc.pos += k + len("--")
	if sc.pos >= len(sc.s) {
		return errXMLEOF
	}
	if sc.s[sc.pos] != '>' {
		return sc.errf(`"--" inside a comment`)
	}
	sc.pos++
	return nil
}

// skipPI consumes a processing instruction, the <?xml …?> declaration
// included; pos is just past "<?".
func (sc *xmlScan) skipPI() error {
	if _, _, err := sc.name(); err != nil {
		return err
	}
	k := strings.Index(sc.s[sc.pos:], "?>")
	if k < 0 {
		sc.pos = len(sc.s)
		return errXMLEOF
	}
	sc.pos += k + len("?>")
	return nil
}

// startTag reads a start tag's name (pos just past its '<') and enters
// the element; its attributes stay pending for attr.
//
//uplan:hotpath
func (sc *xmlScan) startTag() (raw, local string, err error) {
	if raw, local, err = sc.name(); err != nil {
		return "", "", err
	}
	sc.depth++
	if sc.depth > core.MaxNestingDepth {
		return "", "", sc.errf("exceeded max nesting depth")
	}
	sc.inTag = true
	return raw, local, nil
}

// attr reads the next attribute of the open start tag and returns its
// local name and value. ok turns false once the tag has ended.
//
//uplan:hotpath
func (sc *xmlScan) attr() (local, value string, ok bool, err error) {
	if !sc.inTag {
		return "", "", false, nil
	}
	sc.skipSpace()
	s := sc.s
	if sc.pos >= len(s) {
		return "", "", false, errXMLEOF
	}
	switch s[sc.pos] {
	case '>':
		sc.pos++
		sc.inTag = false
		return "", "", false, nil
	case '/':
		if sc.pos+1 >= len(s) {
			return "", "", false, errXMLEOF
		}
		if s[sc.pos+1] != '>' {
			return "", "", false, sc.errf(`expected "/>"`)
		}
		sc.pos += 2
		sc.inTag, sc.empty = false, true
		return "", "", false, nil
	}
	if _, local, err = sc.name(); err != nil {
		return "", "", false, err
	}
	sc.skipSpace()
	if sc.pos >= len(s) {
		return "", "", false, errXMLEOF
	}
	if s[sc.pos] != '=' {
		return "", "", false, sc.errf("attribute %s without a value", local)
	}
	sc.pos++
	sc.skipSpace()
	if sc.pos >= len(s) {
		return "", "", false, errXMLEOF
	}
	q := s[sc.pos]
	if q != '"' && q != '\'' {
		return "", "", false, sc.errf("unquoted value of attribute %s", local)
	}
	sc.pos++
	if value, err = sc.run(q); err != nil {
		return "", "", false, err
	}
	return local, value, true, nil
}

// content reads the next piece of the open element parent (raw name),
// after any attributes still pending: character data (kind xmlText, tok
// the text), a child's start tag (xmlChild, tok its raw name), or
// parent's own end tag (xmlEnd). Comments and processing instructions
// are skipped.
//
//uplan:hotpath
func (sc *xmlScan) content(parent string) (kind xmlItem, tok, local string, err error) {
	for sc.inTag {
		if _, _, _, err := sc.attr(); err != nil {
			return xmlEnd, "", "", err
		}
	}
	if sc.empty {
		sc.empty = false
		sc.depth--
		return xmlEnd, "", "", nil
	}
	s := sc.s
	for {
		if sc.pos >= len(s) {
			return xmlEnd, "", "", errXMLEOF
		}
		if s[sc.pos] != '<' {
			t, err := sc.run(0)
			return xmlText, t, "", err
		}
		if sc.pos+1 >= len(s) {
			return xmlEnd, "", "", errXMLEOF
		}
		switch s[sc.pos+1] {
		case '/':
			sc.pos += 2
			raw, _, err := sc.name()
			if err != nil {
				return xmlEnd, "", "", err
			}
			if raw != parent {
				return xmlEnd, "", "", sc.errf("element <%s> closed by </%s>", parent, raw)
			}
			sc.skipSpace()
			if sc.pos >= len(s) {
				return xmlEnd, "", "", errXMLEOF
			}
			if s[sc.pos] != '>' {
				return xmlEnd, "", "", sc.errf("expected '>' to end </%s", raw)
			}
			sc.pos++
			sc.depth--
			return xmlEnd, "", "", nil
		case '?':
			sc.pos += 2
			if err := sc.skipPI(); err != nil {
				return xmlEnd, "", "", err
			}
		case '!':
			switch rest := s[sc.pos+2:]; {
			case strings.HasPrefix(rest, "--"):
				sc.pos += len("<!--")
				if err := sc.skipComment(); err != nil {
					return xmlEnd, "", "", err
				}
			case strings.HasPrefix(rest, "[CDATA["):
				sc.pos += len("<![CDATA[")
				t, err := sc.cdata()
				return xmlText, t, "", err
			default:
				return xmlEnd, "", "", sc.errf("unsupported markup declaration")
			}
		default:
			sc.pos++
			raw, local, err := sc.startTag()
			return xmlChild, raw, local, err
		}
	}
}

// child returns the next child element of the open element parent,
// skipping the character data around it, with the child's attributes
// pending; ok is false once parent's end tag has been consumed.
//
//uplan:hotpath
func (sc *xmlScan) child(parent string) (raw, local string, ok bool, err error) {
	for {
		kind, tok, loc, err := sc.content(parent)
		if err != nil {
			return "", "", false, err
		}
		switch kind {
		case xmlChild:
			return tok, loc, true, nil
		case xmlEnd:
			return "", "", false, nil
		}
	}
}

// skip consumes the rest of the open element name, checking it.
func (sc *xmlScan) skip(name string) error {
	for {
		raw, _, ok, err := sc.child(name)
		if err != nil || !ok {
			return err
		}
		if err := sc.skip(raw); err != nil {
			return err
		}
	}
}

// text consumes the rest of the open element name and returns its own
// character data — the text and CDATA directly inside it, concatenated
// and trimmed — and whether it held child elements, which it skips.
//
//uplan:hotpath
func (sc *xmlScan) text(name string) (val string, children bool, err error) {
	var joined []byte // the concatenation, once a second piece arrives
	for {
		kind, tok, _, err := sc.content(name)
		if err != nil {
			return "", false, err
		}
		switch kind {
		case xmlEnd:
			if joined != nil {
				val = string(joined)
			}
			return strings.TrimSpace(val), children, nil
		case xmlChild:
			children = true
			if err := sc.skip(tok); err != nil {
				return "", false, err
			}
		case xmlText:
			switch {
			case joined != nil:
				joined = append(joined, tok...)
			case strings.TrimSpace(val) == "": // leading blanks are trimmed anyway
				val = tok
			default:
				joined = append(append(make([]byte, 0, len(val)+len(tok)), val...), tok...)
			}
		}
	}
}

// misc skips the whitespace, comments and processing instructions that
// may surround the document element, and reports whether a start tag
// follows (pos then just past its '<').
func (sc *xmlScan) misc() (bool, error) {
	for {
		sc.skipSpace()
		s := sc.s
		if sc.pos >= len(s) {
			return false, nil
		}
		if s[sc.pos] != '<' {
			return false, sc.errf("character data outside the document element")
		}
		switch rest := s[sc.pos+1:]; {
		case strings.HasPrefix(rest, "?"):
			sc.pos += len("<?")
			if err := sc.skipPI(); err != nil {
				return false, err
			}
		case strings.HasPrefix(rest, "!--"):
			sc.pos += len("<!--")
			if err := sc.skipComment(); err != nil {
				return false, err
			}
		case strings.HasPrefix(rest, "!") || strings.HasPrefix(rest, "/"):
			return false, sc.errf("unexpected markup outside the document element")
		default:
			sc.pos++
			return true, nil
		}
	}
}

// root skips a byte order mark and the prolog and opens the document
// element, whose attributes stay pending.
func (sc *xmlScan) root() (raw, local string, err error) {
	if strings.HasPrefix(sc.s, "\uFEFF") {
		sc.pos = len("\uFEFF")
	}
	ok, err := sc.misc()
	if err != nil {
		return "", "", err
	}
	if !ok {
		return "", "", sc.errf("no document element")
	}
	return sc.startTag()
}

// end checks that only whitespace, comments and processing instructions
// follow the document element.
func (sc *xmlScan) end() error {
	ok, err := sc.misc()
	if err == nil && ok {
		err = sc.errf("content after the document element")
	}
	return err
}
