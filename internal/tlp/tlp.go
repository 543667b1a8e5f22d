// Package tlp implements Ternary Logic Partitioning (Rigger & Su, OOPSLA
// 2020), the test oracle the paper's QPG campaign uses to detect logic
// bugs: for any predicate φ, a query's result must equal the union of the
// results restricted to φ, NOT φ, and φ IS NULL.
package tlp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"uplan/internal/datum"
	"uplan/internal/exec"
)

// Engine is the minimal interface TLP needs; *dbms.Engine satisfies it.
type Engine interface {
	Execute(query string) (*exec.Result, error)
}

// Violation describes a TLP mismatch.
type Violation struct {
	Base       string
	Partitions [3]string
	BaseRows   int
	UnionRows  int
	Detail     string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("tlp: %s: base has %d rows, partitions have %d (%s)",
		v.Base, v.BaseRows, v.UnionRows, v.Detail)
}

// Check runs the TLP oracle for SELECT * FROM table with the given
// predicate. It returns a Violation when the partition union differs from
// the unpartitioned result, nil when consistent, and an error for
// execution failures (which QPG reports as crash-class bugs).
func Check(e Engine, table, predicate string) (*Violation, error) {
	base := "SELECT * FROM " + table
	parts := [3]string{
		base + " WHERE " + predicate,
		base + " WHERE NOT (" + predicate + ")",
		base + " WHERE (" + predicate + ") IS NULL",
	}
	baseRes, err := e.Execute(base)
	if err != nil {
		return nil, fmt.Errorf("tlp: base query: %w", err)
	}
	union := make([][]datum.D, 0, len(baseRes.Rows))
	for _, q := range parts {
		res, err := e.Execute(q)
		if err != nil {
			return nil, fmt.Errorf("tlp: partition %q: %w", q, err)
		}
		union = append(union, res.Rows...)
	}
	// Both slices belong to this call (Execute hands its caller a fresh
	// outer slice), so multisetDiff may reorder them.
	if diff := multisetDiff(baseRes.Rows, union); diff != "" {
		return &Violation{
			Base:       base,
			Partitions: parts,
			BaseRows:   len(baseRes.Rows),
			UnionRows:  len(union),
			Detail:     diff,
		}, nil
	}
	return nil, nil
}

// multisetDiff compares two row multisets, returning a short description
// of the first difference or "" when equal. It reorders a and b.
func multisetDiff(a, b [][]datum.D) string {
	if len(a) != len(b) {
		return fmt.Sprintf("cardinality %d vs %d", len(a), len(b))
	}
	if sameMultiset(a, b) {
		return ""
	}
	ka := sortedKeys(a)
	kb := sortedKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("row content differs at sorted position %d", i)
		}
	}
	return ""
}

// sortedKeys is the string-key form of the comparison: it runs only once
// sameMultiset has found a difference, so that the mismatch text names
// positions in RowKey order.
func sortedKeys(rows [][]datum.D) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = datum.RowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// sameMultiset reports whether two equal-length row multisets are equal
// under datum.RowKey equality, without building keys. It sorts a and b in
// place.
func sameMultiset(a, b [][]datum.D) bool {
	slices.SortFunc(a, compareRowKeys)
	slices.SortFunc(b, compareRowKeys)
	for i := range a {
		if compareRowKeys(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// compareRowKeys is a total order on rows whose equality is exactly
// datum.RowKey equality: same width and pairwise equal value keys.
func compareRowKeys(a, b []datum.D) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := compareValueKeys(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compareValueKeys orders values so that equality matches D.Key
// equality: NULL equals only NULL; INT and FLOAT compare as float64,
// equal iff the float64 bits are equal (so 1 equals 1.0, -0 differs from
// +0, and INT values beyond 2^53 collide as their float64 conversions
// do) or both are NaN; strings and bools compare exactly.
func compareValueKeys(a, b datum.D) int {
	ca, cb := keyClass(a.K), keyClass(b.K)
	if ca != cb {
		return cmp.Compare(ca, cb)
	}
	switch ca {
	case 1:
		fa, _ := a.AsFloat()
		fb, _ := b.AsFloat()
		return cmp.Compare(floatOrder(fa), floatOrder(fb))
	case 2:
		return strings.Compare(a.S, b.S)
	case 3:
		switch {
		case a.B == b.B:
			return 0
		case b.B:
			return -1
		}
		return 1
	}
	return 0
}

// keyClass groups kinds the way D.Key's prefixes do: INT and FLOAT share
// the numeric class.
func keyClass(k datum.Kind) int {
	switch k {
	case datum.KNull:
		return 0
	case datum.KInt, datum.KFloat:
		return 1
	case datum.KString:
		return 2
	case datum.KBool:
		return 3
	}
	return 4
}

// floatOrder maps a float64 to an unsigned key with the same order, one
// key per bit pattern, except that every NaN shares the largest key.
func floatOrder(f float64) uint64 {
	if math.IsNaN(f) {
		return math.MaxUint64
	}
	u := math.Float64bits(f)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// CompareResults performs differential comparison of two engines' results
// for the same query (order-insensitive). It returns "" when identical.
// QPG uses this as its second oracle alongside TLP, in the spirit of
// differential testing the paper discusses in Section VI.
func CompareResults(a, b *exec.Result) string {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	if sameMultiset(slices.Clone(a.Rows), slices.Clone(b.Rows)) {
		return ""
	}
	ka := sortedKeys(a.Rows)
	kb := sortedKeys(b.Rows)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("row multisets differ (first at sorted position %d: %s vs %s)",
				i, strings.TrimSpace(ka[i]), strings.TrimSpace(kb[i]))
		}
	}
	return ""
}
