package sql

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// TestKeywordMatchesToUpper checks the allocation-free keyword lookup
// against the strings.ToUpper lookup it replaced, over every word shape
// the lexer can produce: keywords in any case, identifiers, and words
// with the non-ASCII bytes the lexer accepts as letters (it tests each
// byte as a Latin-1 rune).
func TestKeywordMatchesToUpper(t *testing.T) {
	var wordBytes []byte
	for b := 0; b < 256; b++ {
		if unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b)) || b == '_' {
			wordBytes = append(wordBytes, byte(b))
		}
	}
	ref := func(word string) string {
		if up := strings.ToUpper(word); keywords[up] != "" {
			return up
		}
		return ""
	}
	var words []string
	for k := range keywords {
		words = append(words, k, strings.ToLower(k), strings.ToLower(k[:1])+k[1:], k+"_", k+"1", "x"+k)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		w := []byte(words[r.Intn(len(words))])
		for j := r.Intn(3); j > 0; j-- {
			w[r.Intn(len(w))] = wordBytes[r.Intn(len(wordBytes))]
		}
		words = append(words, string(w))
	}
	words = append(words, "t0", "c1", "", "abcdefghijklmnopqrstuvwxyz", strings.Repeat("A", 16), strings.Repeat("A", 17))
	keywordsSeen := 0
	for _, w := range words {
		got, want := keyword(w), ref(w)
		if got != want {
			t.Fatalf("keyword(%q) = %q, want %q", w, got, want)
		}
		if got != "" {
			keywordsSeen++
		}
	}
	if keywordsSeen < 500 {
		t.Errorf("only %d keyword hits: the word set no longer exercises the lookup", keywordsSeen)
	}
}

func BenchmarkLex(b *testing.B) {
	const q = "SELECT t0.c0, t1.c1 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 " +
		"WHERE (t0.c1 >= 3.5 OR t1.c2 IS NULL) AND t0.c2 <> 'a''b' ORDER BY t0.c0 DESC LIMIT 10"
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Lex(q); err != nil {
			b.Fatal(err)
		}
	}
}
