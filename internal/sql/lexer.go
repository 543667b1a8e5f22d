// Package sql implements the SQL dialect shared by the simulated engines:
// a lexer, parser, and AST with printing for the subset needed by the
// paper's workloads (TPC-H adaptations, SQLancer-style generated queries,
// and the DDL/DML used by QPG database mutation).
package sql

import (
	"fmt"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// TokenKind discriminates lexical token types.
type TokenKind uint8

// Token kinds.
const (
	TEOF TokenKind = iota
	TIdent
	TKeyword
	TInt
	TFloat
	TString
	TSymbol // operators and punctuation
)

// Token is one lexical token with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int
}

func (t Token) String() string {
	if t.Kind == TEOF {
		return "<eof>"
	}
	return t.Text
}

// keywords maps each keyword to itself, so a lookup yields the
// upper-case token text without building it.
var keywords = map[string]string{}

func init() {
	for _, k := range strings.Fields(`
		SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET ASC DESC DISTINCT
		ALL AS JOIN INNER LEFT RIGHT OUTER CROSS ON UNION INTERSECT EXCEPT AND
		OR NOT IN IS NULL BETWEEN LIKE EXISTS CASE WHEN THEN ELSE END TRUE
		FALSE CREATE TABLE INDEX UNIQUE PRIMARY KEY INSERT INTO VALUES UPDATE
		SET DELETE INT INTEGER FLOAT REAL TEXT VARCHAR BOOL BOOLEAN DECIMAL
		DATE EXPLAIN ANALYZE FORMAT`) {
		keywords[k] = k
	}
}

// keyword returns word's keyword in upper case, or "" when word is not a
// keyword. Keywords are ASCII and at most 16 bytes long, so any other
// word is rejected before the lookup, and the lookup upper-cases into a
// stack buffer instead of allocating.
func keyword(word string) string {
	var up [16]byte
	if len(word) > len(up) {
		return ""
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			return ""
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return keywords[string(up[:len(word)])]
}

// Lex tokenizes the input. It returns an error for unterminated strings or
// illegal characters.
func Lex(input string) ([]Token, error) {
	toks, err := lexInto(nil, input)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// tokenPool recycles Parse's token slices. No AST node keeps a Token,
// so a slice is free again once its statement is parsed.
var tokenPool = sync.Pool{New: func() any { return new([]Token) }}

// maxPooledTokens bounds the slices tokenPool keeps, so one huge
// statement does not pin its token slice for the life of the process.
const maxPooledTokens = 1 << 12

// lexInto tokenizes input into toks[:0], growing it as needed. On error
// it still returns the slice, holding the tokens read so far.
func lexInto(toks []Token, input string) ([]Token, error) {
	// Generated statements average three bytes per token and none has
	// more than one per two bytes, so the slice never regrows on them.
	if want := len(input)/2 + 2; cap(toks) < want {
		toks = make([]Token, 0, want)
	}
	toks = toks[:0]
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			if up := keyword(word); up != "" {
				toks = append(toks, Token{Kind: TKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TIdent, Text: word, Pos: start})
			}
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9':
			start := i
			isFloat := false
			for i < n {
				d := input[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !isFloat {
					isFloat = true
					i++
					continue
				}
				if (d == 'e' || d == 'E') && i+1 < n {
					next := input[i+1]
					if next >= '0' && next <= '9' || next == '+' || next == '-' {
						isFloat = true
						i += 2
						continue
					}
				}
				break
			}
			kind := TInt
			if isFloat {
				kind = TFloat
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return toks, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			toks = append(toks, Token{Kind: TString, Text: sb.String(), Pos: start})
		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				toks = append(toks, Token{Kind: TSymbol, Text: two, Pos: start})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
				toks = append(toks, Token{Kind: TSymbol, Text: input[i : i+1], Pos: start})
				i++
			default:
				return toks, fmt.Errorf("sql: illegal character %q at offset %d", c, start)
			}
		}
	}
	toks = append(toks, Token{Kind: TEOF, Pos: n})
	return toks, nil
}
