package core

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// This file implements the text format of the unified query plan
// representation. Two renderings are provided:
//
//   - The strict EBNF form of the paper's Listing 2, a single-line grammar:
//
//     plan       ::= ( tree )? properties
//     tree       ::= node ( '--children-->' '{' tree (',' tree)* '}' )?
//     node       ::= operation properties
//     operation  ::= 'Operation' ':' category '->' identifier
//     property   ::= category '->' identifier ':' value
//
//   - An indented human-readable form matching the paper's Listing 4, where
//     each operation appears on its own line as "Category->Name" with
//     two-space indentation per tree level and properties on subsequent
//     indented lines.
//
// ParseText accepts both renderings.

// textBufPool recycles the scratch buffers behind MarshalText,
// MarshalIndentedText and MarshalJSON so repeated serialization
// (fingerprint loops, batch pipelines) reuses grown capacity instead of
// re-growing per call. The returned string or slice is always a fresh
// copy; pooled buffers never escape.
var textBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// appendValue writes v in text-format syntax directly into b, using the
// buffer's spare capacity instead of building intermediate strings the way
// Value.String does.
func appendValue(b *bytes.Buffer, v Value) {
	switch v.Kind {
	case KindString:
		b.Write(strconv.AppendQuote(b.AvailableBuffer(), v.Str))
	case KindNumber:
		b.Write(appendNumber(b.AvailableBuffer(), v.Num))
	case KindBool:
		if v.Bool {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	default:
		b.WriteString("null")
	}
}

// MarshalText renders the plan in the strict single-line EBNF format.
// Operation and property identifiers are canonicalized (spaces become
// underscores) so the output conforms to the grammar's keyword rule.
func (p *Plan) MarshalText() string {
	b := textBufPool.Get().(*bytes.Buffer)
	b.Reset()
	defer textBufPool.Put(b)
	if p.Root != nil {
		writeTreeEBNF(b, p.Root)
		if len(p.Properties) > 0 {
			// The grammar "plan ::= (tree)? properties" is ambiguous when
			// the root operation has trailing properties; the explicit
			// marker resolves which properties are plan-associated.
			b.WriteString(" Plan: ")
		}
	}
	writePropsEBNF(b, p.Properties)
	return b.String()
}

func writeTreeEBNF(b *bytes.Buffer, n *Node) {
	b.WriteString("Operation: ")
	b.WriteString(string(n.Op.Category))
	b.WriteString("->")
	b.WriteString(CanonicalName(n.Op.Name))
	if len(n.Properties) > 0 {
		b.WriteByte(' ')
		writePropsEBNF(b, n.Properties)
	}
	if len(n.Children) > 0 {
		b.WriteString(" --children--> {")
		for i, c := range n.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			writeTreeEBNF(b, c)
		}
		b.WriteString("}")
	}
}

func writePropsEBNF(b *bytes.Buffer, props []Property) {
	for i, pr := range props {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(pr.Category))
		b.WriteString("->")
		b.WriteString(CanonicalName(pr.Name))
		b.WriteString(": ")
		appendValue(b, pr.Value)
	}
}

// indentBlanks backs writeIndent; deep plans write it in slices.
const indentBlanks = "                                                                "

// writeIndent writes 2*depth spaces without allocating.
func writeIndent(b *bytes.Buffer, depth int) {
	for n := 2 * depth; n > 0; {
		k := min(n, len(indentBlanks))
		b.WriteString(indentBlanks[:k])
		n -= k
	}
}

// MarshalIndentedText renders the plan in the indented, human-readable text
// form used by the paper's Listing 4: one operation per line with two-space
// indentation per level, each property on its own line below its operation,
// and plan-associated properties at the end.
func (p *Plan) MarshalIndentedText() string {
	b := textBufPool.Get().(*bytes.Buffer)
	b.Reset()
	defer textBufPool.Put(b)
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		writeIndent(b, depth)
		b.WriteString(string(n.Op.Category))
		b.WriteString("->")
		b.WriteString(n.Op.Name)
		b.WriteByte('\n')
		for _, pr := range n.Properties {
			writeIndent(b, depth+1)
			b.WriteString(string(pr.Category))
			b.WriteString("->")
			b.WriteString(pr.Name)
			b.WriteString(": ")
			appendValue(b, pr.Value)
			b.WriteByte('\n')
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	for _, pr := range p.Properties {
		b.WriteString(string(pr.Category))
		b.WriteString("->")
		b.WriteString(pr.Name)
		b.WriteString(": ")
		appendValue(b, pr.Value)
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseText parses either text rendering back into a Plan. It auto-detects
// the form: input containing the token "Operation:" is parsed as the strict
// EBNF form; otherwise as the indented form.
func ParseText(s string) (*Plan, error) {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return &Plan{}, nil
	}
	if strings.Contains(trimmed, "Operation:") {
		return parseEBNF(trimmed)
	}
	// A single line without "Operation:" may still be a strict-form plan
	// property list ("Cardinality->x: 1, Status->y: 2").
	if !strings.Contains(trimmed, "\n") {
		if p, err := parseEBNF(trimmed); err == nil {
			return p, nil
		}
	}
	return parseIndented(s)
}

// ---------------------------------------------------------------- strict EBNF

type textLexer struct {
	in  string
	pos int
}

func (l *textLexer) skipSpace() {
	for l.pos < len(l.in) && (l.in[l.pos] == ' ' || l.in[l.pos] == '\t' || l.in[l.pos] == '\n' || l.in[l.pos] == '\r') {
		l.pos++
	}
}

func (l *textLexer) eof() bool {
	l.skipSpace()
	return l.pos >= len(l.in)
}

func (l *textLexer) consume(tok string) bool {
	l.skipSpace()
	if strings.HasPrefix(l.in[l.pos:], tok) {
		l.pos += len(tok)
		return true
	}
	return false
}

func (l *textLexer) expect(tok string) error {
	if !l.consume(tok) {
		ctx := l.in[l.pos:]
		if len(ctx) > 25 {
			ctx = ctx[:25] + "…"
		}
		return fmt.Errorf("core: expected %q at offset %d (near %q)", tok, l.pos, ctx)
	}
	return nil
}

// identifier reads a keyword: letters, digits, underscores. It tolerates
// embedded single spaces between words (paper usage, e.g. "Full Table")
// when the next word is not a structural token.
func (l *textLexer) identifier() (string, error) {
	l.skipSpace()
	start := l.pos
	readWord := func() bool {
		n := 0
		for l.pos < len(l.in) {
			c := l.in[l.pos]
			if c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) {
				l.pos++
				n++
				continue
			}
			break
		}
		return n > 0
	}
	if !readWord() {
		return "", fmt.Errorf("core: expected identifier at offset %d", l.pos)
	}
	// Greedily absorb following space-separated words that are plainly part
	// of a multi-word name (not followed by "->" or ":" which would make
	// them the start of the next property/operation, and not structural).
	for {
		save := l.pos
		if l.pos >= len(l.in) || l.in[l.pos] != ' ' {
			break
		}
		l.pos++
		wordStart := l.pos
		if !readWord() {
			l.pos = save
			break
		}
		rest := l.in[l.pos:]
		word := l.in[wordStart:l.pos]
		// Stop absorbing when the word begins the next construct: a
		// category ("word->"), a node ("Operation:"), the plan-property
		// marker ("Plan:"), or the children arrow.
		if strings.HasPrefix(rest, "->") ||
			word == "Operation" || word == "Plan" ||
			strings.HasPrefix(word, "--children") {
			l.pos = save
			break
		}
	}
	return l.in[start:l.pos], nil
}

func (l *textLexer) value() (Value, error) {
	l.skipSpace()
	if l.pos >= len(l.in) {
		return Value{}, fmt.Errorf("core: expected value at end of input")
	}
	switch c := l.in[l.pos]; {
	case c == '"':
		rest := l.in[l.pos:]
		// Find the closing quote honoring backslash escapes.
		end := 1
		for end < len(rest) {
			if rest[end] == '\\' {
				end += 2
				continue
			}
			if rest[end] == '"' {
				break
			}
			end++
		}
		if end >= len(rest) {
			return Value{}, fmt.Errorf("core: unterminated string at offset %d", l.pos)
		}
		raw := rest[:end+1]
		s, err := strconv.Unquote(raw)
		if err != nil {
			return Value{}, fmt.Errorf("core: bad string literal %s: %v", raw, err)
		}
		l.pos += len(raw)
		return Str(s), nil
	case c == '-' || c >= '0' && c <= '9':
		start := l.pos
		l.pos++
		for l.pos < len(l.in) {
			c := l.in[l.pos]
			if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
				l.pos++
				continue
			}
			break
		}
		f, err := strconv.ParseFloat(l.in[start:l.pos], 64)
		if err != nil {
			return Value{}, fmt.Errorf("core: bad number %q: %v", l.in[start:l.pos], err)
		}
		return Num(f), nil
	default:
		if l.consume("true") {
			return BoolVal(true), nil
		}
		if l.consume("false") {
			return BoolVal(false), nil
		}
		if l.consume("null") {
			return Null(), nil
		}
	}
	return Value{}, fmt.Errorf("core: unrecognized value at offset %d", l.pos)
}

func parseEBNF(s string) (*Plan, error) {
	l := &textLexer{in: s}
	p := &Plan{}
	if strings.HasPrefix(strings.TrimSpace(s), "Operation:") {
		root, err := parseTreeEBNF(l)
		if err != nil {
			return nil, err
		}
		p.Root = root
	}
	// Remaining input is the plan-associated property list, optionally
	// introduced by the "Plan:" marker.
	l.consume("Plan")
	l.consume(":")
	for !l.eof() {
		l.consume(",")
		if l.eof() {
			break
		}
		pr, err := parsePropertyEBNF(l)
		if err != nil {
			return nil, err
		}
		p.Properties = append(p.Properties, pr)
	}
	return p, nil
}

func parseTreeEBNF(l *textLexer) (*Node, error) {
	if err := l.expect("Operation"); err != nil {
		return nil, err
	}
	if err := l.expect(":"); err != nil {
		return nil, err
	}
	cat, err := l.identifier()
	if err != nil {
		return nil, err
	}
	if err := l.expect("->"); err != nil {
		return nil, err
	}
	name, err := l.identifier()
	if err != nil {
		return nil, err
	}
	n := &Node{Op: Operation{Category: OperationCategory(cat), Name: DisplayName(name)}}
	// Operation-associated properties: comma-separated "cat->name: value"
	// entries until we hit '--children-->', '}', ',', a following
	// "Operation:" (sibling), or end of input.
	for {
		l.skipSpace()
		if l.eof() {
			break
		}
		rest := l.in[l.pos:]
		if strings.HasPrefix(rest, "--children-->") || strings.HasPrefix(rest, "}") ||
			strings.HasPrefix(rest, "Plan:") {
			break
		}
		save := l.pos
		l.consume(",")
		l.skipSpace()
		rest = l.in[l.pos:]
		if strings.HasPrefix(rest, "Operation:") || strings.HasPrefix(rest, "}") ||
			strings.HasPrefix(rest, "Plan:") || rest == "" {
			l.pos = save
			break
		}
		pr, err := parsePropertyEBNF(l)
		if err != nil {
			l.pos = save
			break
		}
		n.Properties = append(n.Properties, pr)
	}
	if l.consume("--children-->") {
		if err := l.expect("{"); err != nil {
			return nil, err
		}
		for {
			child, err := parseTreeEBNF(l)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
			if l.consume(",") {
				continue
			}
			break
		}
		if err := l.expect("}"); err != nil {
			return nil, err
		}
	}
	return n, nil
}

func parsePropertyEBNF(l *textLexer) (Property, error) {
	cat, err := l.identifier()
	if err != nil {
		return Property{}, err
	}
	if err := l.expect("->"); err != nil {
		return Property{}, err
	}
	name, err := l.identifier()
	if err != nil {
		return Property{}, err
	}
	if err := l.expect(":"); err != nil {
		return Property{}, err
	}
	v, err := l.value()
	if err != nil {
		return Property{}, err
	}
	return Property{Category: PropertyCategory(cat), Name: DisplayName(name), Value: v}, nil
}

// ------------------------------------------------------------- indented form

// parseIndented parses the indented rendering produced by
// MarshalIndentedText. Operation lines have the form
// "<indent>Category->Name"; property lines are indented one extra level and
// contain ": "; plan properties appear at indent 0 after the tree with a
// known property category prefix.
func parseIndented(s string) (*Plan, error) {
	p := &Plan{}
	type frame struct {
		node  *Node
		depth int
	}
	var stack []frame
	lines := strings.Split(s, "\n")
	for lineNo, raw := range lines {
		if strings.TrimSpace(raw) == "" {
			continue
		}
		depth := 0
		for depth*2+1 < len(raw) && raw[depth*2] == ' ' && raw[depth*2+1] == ' ' {
			depth++
		}
		line := strings.TrimSpace(raw)
		arrow := strings.Index(line, "->")
		if arrow < 0 {
			return nil, fmt.Errorf("core: line %d: expected 'Category->Name': %q", lineNo+1, line)
		}
		cat := line[:arrow]
		rest := line[arrow+2:]
		if isPropertyCategory(cat) {
			colon := strings.Index(rest, ": ")
			if colon < 0 {
				return nil, fmt.Errorf("core: line %d: property without value: %q", lineNo+1, line)
			}
			v, err := parseValueLiteral(strings.TrimSpace(rest[colon+2:]))
			if err != nil {
				return nil, fmt.Errorf("core: line %d: %v", lineNo+1, err)
			}
			pr := Property{Category: PropertyCategory(cat), Name: rest[:colon], Value: v}
			// A property line at visual depth d belongs to the operation at
			// depth d-1; depth 0 properties are plan-associated.
			var owner *Node
			if depth > 0 {
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].depth == depth-1 {
						owner = stack[i].node
						break
					}
					if stack[i].depth < depth-1 {
						break
					}
				}
			}
			if owner == nil {
				p.Properties = append(p.Properties, pr)
				continue
			}
			owner.Properties = append(owner.Properties, pr)
			continue
		}
		// Operation line.
		n := &Node{Op: Operation{Category: OperationCategory(cat), Name: rest}}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if p.Root != nil {
				return nil, fmt.Errorf("core: line %d: multiple roots", lineNo+1)
			}
			p.Root = n
		} else {
			parent := stack[len(stack)-1].node
			parent.Children = append(parent.Children, n)
		}
		stack = append(stack, frame{node: n, depth: depth})
	}
	return p, nil
}

func isPropertyCategory(s string) bool {
	return PropertyCategory(s).Valid()
}

func parseValueLiteral(s string) (Value, error) {
	switch {
	case s == "null":
		return Null(), nil
	case s == "true":
		return BoolVal(true), nil
	case s == "false":
		return BoolVal(false), nil
	case strings.HasPrefix(s, `"`):
		u, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("bad string %s: %v", s, err)
		}
		return Str(u), nil
	default:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			// Be forgiving: unquoted free text, the NaN and Inf words
			// included, is a string.
			return Str(s), nil
		}
		return Num(f), nil
	}
}
