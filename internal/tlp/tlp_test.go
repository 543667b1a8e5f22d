package tlp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"uplan/internal/datum"
	"uplan/internal/dbms"
	"uplan/internal/exec"
	"uplan/internal/oracle"
)

func engine(t *testing.T) *dbms.Engine {
	t.Helper()
	e := dbms.MustNew("postgresql")
	for _, s := range []string{
		"CREATE TABLE t0 (c0 INT, c1 INT)",
		"INSERT INTO t0 VALUES (1, NULL), (2, 5), (3, 10), (NULL, 7)",
	} {
		if _, err := e.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestPartitionsConsistentOnCorrectEngine(t *testing.T) {
	e := engine(t)
	for _, pred := range []string{
		"c1 > 6", "c0 IS NULL", "c1 = 5 OR c0 < 2", "NOT (c1 < 8)",
		"c0 BETWEEN 1 AND 2", "c1 IN (5, 7)",
	} {
		v, err := Check(e, "t0", pred)
		if err != nil {
			t.Fatalf("pred %q: %v", pred, err)
		}
		if v != nil {
			t.Errorf("correct engine violated TLP for %q: %v", pred, v)
		}
	}
}

func TestViolationDetectedAndRendered(t *testing.T) {
	e := engine(t)
	e.Quirks.NotIgnoresNull = true
	v, err := Check(e, "t0", "c1 > 6")
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("defect not detected")
	}
	if !strings.Contains(v.Error(), "tlp:") {
		t.Errorf("violation rendering: %s", v.Error())
	}
}

func TestCheckPropagatesExecutionErrors(t *testing.T) {
	e := engine(t)
	if _, err := Check(e, "missing_table", "c1 > 6"); err == nil {
		t.Error("missing table must surface as an error")
	}
}

// TestProbeUsesSentinel pins Probe's classification, which QPG and the
// TLP task share: unresolved-column noise is skipped via errors.Is on
// exec.ErrUnresolvedColumn, while every other execution failure —
// including ones that merely mention columns — is a crash finding, and a
// partition mismatch is a logic finding.
func TestProbeUsesSentinel(t *testing.T) {
	var found []oracle.Finding
	tc := &oracle.TaskContext{
		Engine: engine(t),
		Report: func(f oracle.Finding) bool { found = append(found, f); return true },
	}
	if Probe(tc, "t0", "no_such_column = 1") {
		t.Error("unresolved-column noise must be skipped")
	}
	if !Probe(tc, "t0", "c1 > 6") || len(found) != 0 {
		t.Fatalf("consistent predicate: findings = %v", found)
	}
	if !Probe(tc, "t0", "c0 = = 1") { // malformed predicate: a genuine failure
		t.Error("a non-sentinel error is not a skip")
	}
	if len(found) != 1 || found[0].Kind != oracle.KindCrash {
		t.Fatalf("non-sentinel error must be a crash finding, findings = %v", found)
	}
	tc.Engine.Quirks.NotIgnoresNull = true
	if !Probe(tc, "t0", "c1 > 6") {
		t.Error("a violation is not a skip")
	}
	if len(found) != 2 || found[1].Kind != oracle.KindLogic ||
		found[1].Query != "SELECT * FROM t0 WHERE c1 > 6" {
		t.Fatalf("partition mismatch must be a logic finding, findings = %v", found)
	}
}

func TestCompareResults(t *testing.T) {
	a := &exec.Result{Rows: [][]datum.D{{datum.Int(1)}, {datum.Int(2)}}}
	b := &exec.Result{Rows: [][]datum.D{{datum.Int(2)}, {datum.Int(1)}}}
	if diff := CompareResults(a, b); diff != "" {
		t.Errorf("order-insensitive comparison broken: %s", diff)
	}
	c := &exec.Result{Rows: [][]datum.D{{datum.Int(1)}}}
	if diff := CompareResults(a, c); diff == "" {
		t.Error("cardinality difference missed")
	}
	d := &exec.Result{Rows: [][]datum.D{{datum.Int(1)}, {datum.Int(3)}}}
	if diff := CompareResults(a, d); diff == "" {
		t.Error("content difference missed")
	}
	// NULL vs 0 must differ.
	n1 := &exec.Result{Rows: [][]datum.D{{datum.Null()}}}
	n2 := &exec.Result{Rows: [][]datum.D{{datum.Int(0)}}}
	if diff := CompareResults(n1, n2); diff == "" {
		t.Error("NULL vs 0 missed")
	}
}

// refMultisetDiff and refCompareResults are the string-key comparisons
// the key-free path must reproduce exactly: sort RowKey strings, compare
// pairwise.
func refMultisetDiff(a, b [][]datum.D) string {
	if len(a) != len(b) {
		return fmt.Sprintf("cardinality %d vs %d", len(a), len(b))
	}
	ka, kb := sortedKeys(a), sortedKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("row content differs at sorted position %d", i)
		}
	}
	return ""
}

func refCompareResults(a, b *exec.Result) string {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	ka, kb := sortedKeys(a.Rows), sortedKeys(b.Rows)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("row multisets differ (first at sorted position %d: %s vs %s)",
				i, strings.TrimSpace(ka[i]), strings.TrimSpace(kb[i]))
		}
	}
	return ""
}

// keyEdgeValues are the values whose RowKey equalities the comparator
// must reproduce: NULL, ±0, 1 vs 1.0, 2^53 vs 2^53+1 (equal as float64),
// NaNs with different bits, infinities, numeric-looking strings and
// bools.
var keyEdgeValues = []datum.D{
	datum.Null(),
	datum.Int(0), datum.Int(1), datum.Int(-1), datum.Int(2),
	datum.Int(1 << 53), datum.Int(1<<53 + 1), datum.Int(-(1 << 53) - 1), datum.Int(math.MaxInt64),
	datum.Float(0), datum.Float(math.Copysign(0, -1)), datum.Float(1), datum.Float(-1),
	datum.Float(0.5), datum.Float(1 << 53), datum.Float(-(1 << 53)),
	datum.Float(math.NaN()), datum.Float(math.Float64frombits(0x7ff8000000000001)),
	datum.Float(math.Float64frombits(0xfff8000000000000)),
	datum.Float(math.Inf(1)), datum.Float(math.Inf(-1)), datum.Float(math.SmallestNonzeroFloat64),
	datum.Str(""), datum.Str("0"), datum.Str("1"), datum.Str("1.0"), datum.Str("-0"),
	datum.Str("NaN"), datum.Str("n1"), datum.Str("b1"), datum.Str("\x00"), datum.Str(" 1 "),
	datum.Bool(true), datum.Bool(false),
}

// keyTwin returns a value with the same RowKey as d but possibly a
// different representation (1 vs 1.0), so shuffled copies exercise
// cross-kind equality.
func keyTwin(r *rand.Rand, d datum.D) datum.D {
	switch {
	case d.K == datum.KInt && r.Intn(2) == 0:
		return datum.Float(float64(d.I))
	case d.K == datum.KFloat && d.F == math.Trunc(d.F) && math.Abs(d.F) < 1<<62 && r.Intn(2) == 0:
		if d.F != 0 || !math.Signbit(d.F) {
			return datum.Int(int64(d.F))
		}
	case d.K == datum.KFloat && math.IsNaN(d.F) && r.Intn(2) == 0:
		return datum.Float(math.Float64frombits(0x7ff8000000000000 | uint64(r.Intn(1000))))
	}
	return d
}

func randomRows(r *rand.Rand, n, width int) [][]datum.D {
	rows := make([][]datum.D, n)
	for i := range rows {
		w := width
		if w < 0 {
			w = r.Intn(4) // mixed widths
		}
		row := make([]datum.D, w)
		for j := range row {
			row[j] = keyEdgeValues[r.Intn(len(keyEdgeValues))]
		}
		rows[i] = row
	}
	return rows
}

// variant derives b from a: a shuffled copy of key twins, the same with
// one value changed, a row dropped or duplicated, or unrelated rows.
func variant(r *rand.Rand, a [][]datum.D) [][]datum.D {
	b := make([][]datum.D, len(a))
	for i, row := range a {
		nr := make([]datum.D, len(row))
		for j, d := range row {
			nr[j] = keyTwin(r, d)
		}
		b[i] = nr
	}
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	switch r.Intn(6) {
	case 0, 1: // equal multiset
	case 2:
		if i := r.Intn(len(b) + 1); i < len(b) && len(b[i]) > 0 {
			b[i][r.Intn(len(b[i]))] = keyEdgeValues[r.Intn(len(keyEdgeValues))]
		}
	case 3:
		if len(b) > 0 {
			b[r.Intn(len(b))] = b[r.Intn(len(b))]
		}
	case 4:
		if len(b) > 0 {
			b = b[:len(b)-1]
		}
	case 5:
		b = randomRows(r, len(a), -1)
	}
	return b
}

// identicalRows compares rows value by value, floats by bit pattern so
// that NaNs compare equal to themselves.
func identicalRows(a, b [][]datum.D) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			y := b[i][j]
			if x.K != y.K || x.I != y.I || x.S != y.S || x.B != y.B ||
				math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		}
	}
	return true
}

func cloneRows(rows [][]datum.D) [][]datum.D {
	out := make([][]datum.D, len(rows))
	for i, r := range rows {
		out[i] = append([]datum.D(nil), r...)
	}
	return out
}

// TestKeyFreeComparisonMatchesRowKeys is the property test for the
// key-free comparison: over random row multisets of edge values,
// multisetDiff and CompareResults return exactly the strings of the
// string-key reference.
func TestKeyFreeComparisonMatchesRowKeys(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	equal := 0
	for iter := 0; iter < 20000; iter++ {
		width := r.Intn(4)
		if r.Intn(4) == 0 {
			width = -1
		}
		a := randomRows(r, r.Intn(9), width)
		b := variant(r, a)

		want := refCompareResults(&exec.Result{Rows: a}, &exec.Result{Rows: b})
		ra, rb := &exec.Result{Rows: cloneRows(a)}, &exec.Result{Rows: cloneRows(b)}
		if got := CompareResults(ra, rb); got != want {
			t.Fatalf("CompareResults(%v, %v) = %q, want %q", a, b, got, want)
		}
		if !identicalRows(ra.Rows, a) || !identicalRows(rb.Rows, b) {
			t.Fatalf("CompareResults reordered or changed its inputs")
		}
		wantDiff := refMultisetDiff(a, b)
		if got := multisetDiff(cloneRows(a), cloneRows(b)); got != wantDiff {
			t.Fatalf("multisetDiff(%v, %v) = %q, want %q", a, b, got, wantDiff)
		}
		// The key-free verdict alone must agree too: the string-key
		// fallback would otherwise mask a comparator that calls equal
		// multisets different.
		if len(a) == len(b) && sameMultiset(cloneRows(a), cloneRows(b)) != (wantDiff == "") {
			t.Fatalf("sameMultiset(%v, %v) = %v, want %v", a, b, wantDiff != "", wantDiff == "")
		}
		if want == "" {
			equal++
		}
	}
	if equal < 5000 {
		t.Errorf("only %d of 20000 cases were equal multisets; the generator no longer exercises the equal path", equal)
	}
}

// fixedTable is the 30-row table the allocation budget is measured on.
func fixedTable(t testing.TB) *dbms.Engine {
	t.Helper()
	e := dbms.MustNew("postgresql")
	if _, err := e.Execute("CREATE TABLE t0 (c0 INT, c1 FLOAT, c2 TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		q := fmt.Sprintf("INSERT INTO t0 VALUES (%d, %d.5, 'v%d')", i, i%7, i%5)
		if i%6 == 0 {
			q = fmt.Sprintf("INSERT INTO t0 VALUES (NULL, %d.5, NULL)", i%7)
		}
		if _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

const fixedPredicate = "c0 > 10 AND c1 < 4.5"

// TestCheckAllocBudget pins tlp.Check's allocations on the fixed 30-row
// table: four statements parsed, planned and run, and the result multisets
// compared without building row keys, which cost several allocations per
// row.
func TestCheckAllocBudget(t *testing.T) {
	const budget = 200
	e := fixedTable(t)
	allocs := testing.AllocsPerRun(50, func() {
		if v, err := Check(e, "t0", fixedPredicate); err != nil || v != nil {
			t.Fatalf("Check = %v, %v", v, err)
		}
	})
	if allocs > budget {
		t.Errorf("tlp.Check allocates %.0f times per call, budget %d", allocs, budget)
	}
}

func BenchmarkTLPCheck(b *testing.B) {
	e := fixedTable(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Check(e, "t0", fixedPredicate); err != nil {
			b.Fatal(err)
		}
	}
}
