// Package jsonenc holds the two JSON scalar formatters the hand-written
// encoders share: the unified plan's encoder (core), the native EXPLAIN
// JSON serializers (explain) and the plan service's wire bodies (serve).
// Both reproduce encoding/json's bytes exactly, so a hand-written
// encoder built on them is byte-identical to json.Marshal of the same
// value.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat formats a finite float64 as encoding/json does: 'f'
// notation, switching to 'e' below 1e-6 and from 1e21 up, with a
// two-digit negative exponent shortened (e-07 to e-7). Callers decide
// what a NaN or an infinity becomes; encoding/json refuses them.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// htmlSafe marks the ASCII bytes AppendString copies unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString quotes s as encoding/json does with HTML escaping on:
// <, > and & become \u003c, \u003e and \u0026; control characters use
// \b \f \n \r \t or \u00XX; invalid UTF-8 becomes \ufffd; U+2028 and
// U+2029 are escaped.
//
//uplan:hotpath
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
