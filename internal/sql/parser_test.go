package sql

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"uplan/internal/datum"
)

func parseOK(t *testing.T, in string) Statement {
	t.Helper()
	stmt, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	return stmt
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, t1.b FROM t1 WHERE a <= 'x''y' -- comment\n AND b <> 1.5e3")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "t1", ".", "b", "FROM", "t1",
		"WHERE", "a", "<=", "x'y", "AND", "b", "<>", "1.5e3"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'oops"); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := Lex("SELECT @x"); err == nil {
		t.Error("illegal character must fail")
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt := parseOK(t, "CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 TEXT NOT NULL, c2 FLOAT, c3 BOOL)")
	ct := stmt.(*CreateTable)
	if ct.Name != "t0" || len(ct.Columns) != 4 {
		t.Fatalf("bad create table: %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || !ct.Columns[0].NotNull {
		t.Error("primary key flags wrong")
	}
	if ct.Columns[1].Type != "TEXT" || !ct.Columns[1].NotNull {
		t.Error("c1 flags wrong")
	}
	if ct.Columns[2].Type != "FLOAT" || ct.Columns[3].Type != "BOOL" {
		t.Error("type normalization wrong")
	}
}

func TestParseCreateTableTypeSynonyms(t *testing.T) {
	stmt := parseOK(t, "CREATE TABLE s (a INTEGER, b REAL, c VARCHAR(25), d DECIMAL(15,2), e DATE)")
	ct := stmt.(*CreateTable)
	types := []string{"INT", "FLOAT", "TEXT", "FLOAT", "TEXT"}
	for i, w := range types {
		if ct.Columns[i].Type != w {
			t.Errorf("col %d type = %q, want %q", i, ct.Columns[i].Type, w)
		}
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmt := parseOK(t, "CREATE UNIQUE INDEX i0 ON t0 (c0, c1)")
	ci := stmt.(*CreateIndex)
	if !ci.Unique || ci.Table != "t0" || len(ci.Columns) != 2 {
		t.Fatalf("bad create index: %+v", ci)
	}
}

func TestParseInsert(t *testing.T) {
	stmt := parseOK(t, "INSERT INTO t0 (c1, c0) VALUES (0, 1), (NULL, 'x')")
	ins := stmt.(*Insert)
	if ins.Table != "t0" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("bad insert: %+v", ins)
	}
	if lit := ins.Rows[1][0].(*Literal); !lit.Val.IsNull() {
		t.Error("NULL literal expected")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	upd := parseOK(t, "UPDATE t0 SET c0 = c0 + 1, c1 = 'x' WHERE c0 > 5").(*Update)
	if len(upd.Sets) != 2 || upd.Where == nil {
		t.Fatalf("bad update: %+v", upd)
	}
	del := parseOK(t, "DELETE FROM t0 WHERE c0 IS NULL").(*Delete)
	if del.Table != "t0" || del.Where == nil {
		t.Fatalf("bad delete: %+v", del)
	}
}

func TestParseSelectBasic(t *testing.T) {
	sel := parseOK(t, "SELECT DISTINCT t1.c0 AS x, COUNT(*) FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c0 < 100 GROUP BY t1.c0 HAVING COUNT(*) > 1 ORDER BY x DESC LIMIT 10 OFFSET 2").(*Select)
	core := sel.Core
	if !core.Distinct || len(core.Items) != 2 {
		t.Fatalf("items: %+v", core.Items)
	}
	if core.Items[0].Alias != "x" {
		t.Error("alias lost")
	}
	join, ok := core.From.(*JoinRef)
	if !ok || join.Type != JoinInner || join.On == nil {
		t.Fatalf("join parse: %+v", core.From)
	}
	if core.Where == nil || len(core.GroupBy) != 1 || core.Having == nil {
		t.Error("clauses missing")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Error("order by wrong")
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Error("limit/offset missing")
	}
}

func TestParseImplicitAlias(t *testing.T) {
	sel := parseOK(t, "SELECT a.c0 FROM t0 a").(*Select)
	bt := sel.Core.From.(*BaseTable)
	if bt.Name != "t0" || bt.Alias != "a" {
		t.Fatalf("alias: %+v", bt)
	}
}

func TestParseCompound(t *testing.T) {
	sel := parseOK(t, "SELECT c0 FROM t0 UNION SELECT c0 FROM t1 UNION ALL SELECT c0 FROM t2 ORDER BY c0").(*Select)
	if sel.Compound == nil || sel.Compound.Op != UnionAllOp {
		t.Fatalf("outer compound: %+v", sel.Compound)
	}
	inner := sel.Compound.Left
	if inner.Compound == nil || inner.Compound.Op != UnionOp {
		t.Fatalf("inner compound: %+v", inner)
	}
	if len(sel.OrderBy) != 1 {
		t.Error("order by must attach to the compound")
	}
}

func TestParseSetOps(t *testing.T) {
	for _, op := range []string{"INTERSECT", "EXCEPT"} {
		sel := parseOK(t, "SELECT c0 FROM t0 "+op+" SELECT c0 FROM t1").(*Select)
		if sel.Compound == nil || string(sel.Compound.Op) != op {
			t.Errorf("%s parse failed: %+v", op, sel.Compound)
		}
	}
}

func TestParseSubqueries(t *testing.T) {
	sel := parseOK(t, "SELECT * FROM t0 WHERE c0 IN (SELECT c0 FROM t1) AND EXISTS (SELECT 1 FROM t2) AND c1 = (SELECT MAX(c1) FROM t3)").(*Select)
	where := sel.Core.Where
	found := map[string]bool{}
	WalkExpr(where, func(e Expr) bool {
		switch e.(type) {
		case *InSubquery:
			found["in"] = true
		case *Exists:
			found["exists"] = true
		case *ScalarSubquery:
			found["scalar"] = true
		}
		return true
	})
	if !found["in"] || !found["exists"] || !found["scalar"] {
		t.Errorf("subqueries found: %v", found)
	}
}

func TestParseDerivedTable(t *testing.T) {
	sel := parseOK(t, "SELECT x.a FROM (SELECT c0 AS a FROM t0) AS x").(*Select)
	sub, ok := sel.Core.From.(*SubqueryRef)
	if !ok || sub.Alias != "x" {
		t.Fatalf("derived table: %+v", sel.Core.From)
	}
}

func TestParseExprForms(t *testing.T) {
	sel := parseOK(t, `SELECT CASE WHEN c0 > 0 THEN 'p' ELSE 'n' END,
		c0 BETWEEN 1 AND 10, c1 LIKE 'a%', c2 NOT IN (1, 2),
		c3 IS NOT NULL, GREATEST(0.1, 0.2), -c0, NOT c4
		FROM t0`).(*Select)
	if len(sel.Core.Items) != 8 {
		t.Fatalf("items = %d", len(sel.Core.Items))
	}
	if _, ok := sel.Core.Items[0].Expr.(*Case); !ok {
		t.Error("CASE parse failed")
	}
	if b, ok := sel.Core.Items[1].Expr.(*Between); !ok || b.Neg {
		t.Error("BETWEEN parse failed")
	}
	if l, ok := sel.Core.Items[2].Expr.(*Like); !ok || l.Neg {
		t.Error("LIKE parse failed")
	}
	if in, ok := sel.Core.Items[3].Expr.(*InList); !ok || !in.Neg {
		t.Error("NOT IN parse failed")
	}
	if n, ok := sel.Core.Items[4].Expr.(*IsNull); !ok || !n.Neg {
		t.Error("IS NOT NULL parse failed")
	}
	if f, ok := sel.Core.Items[5].Expr.(*FuncCall); !ok || f.Name != "GREATEST" {
		t.Error("function call parse failed")
	}
	if lit, ok := sel.Core.Items[6].Expr.(*Literal); !ok || lit.Val.I != 0 {
		// -c0 is a Unary, not a literal; both acceptable shapes
		if _, ok := sel.Core.Items[6].Expr.(*Unary); !ok {
			t.Error("negation parse failed")
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := parseOK(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").(*Select)
	or, ok := sel.Core.Where.(*Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("OR should be top: %v", sel.Core.Where.SQL())
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("AND should bind tighter: %v", or.R.SQL())
	}
	sel2 := parseOK(t, "SELECT 1 + 2 * 3").(*Select)
	add := sel2.Core.Items[0].Expr.(*Binary)
	if add.Op != OpAdd {
		t.Fatal("additive should be top")
	}
	if mul, ok := add.R.(*Binary); !ok || mul.Op != OpMul {
		t.Fatal("* should bind tighter than +")
	}
}

func TestParseNegativeNumbersFold(t *testing.T) {
	sel := parseOK(t, "SELECT -5, -2.5").(*Select)
	if lit := sel.Core.Items[0].Expr.(*Literal); lit.Val.I != -5 {
		t.Errorf("folded -5: %v", lit.Val)
	}
	if lit := sel.Core.Items[1].Expr.(*Literal); lit.Val.F != -2.5 {
		t.Errorf("folded -2.5: %v", lit.Val)
	}
}

func TestParseExplain(t *testing.T) {
	ex := parseOK(t, "EXPLAIN SELECT * FROM t0").(*Explain)
	if ex.Analyze || ex.Format != "" {
		t.Errorf("plain explain flags: %+v", ex)
	}
	ex = parseOK(t, "EXPLAIN ANALYZE SELECT * FROM t0").(*Explain)
	if !ex.Analyze {
		t.Error("ANALYZE lost")
	}
	ex = parseOK(t, "EXPLAIN (FORMAT JSON) SELECT * FROM t0").(*Explain)
	if ex.Format != "JSON" {
		t.Errorf("format = %q", ex.Format)
	}
	ex = parseOK(t, "EXPLAIN (SUMMARY TRUE) SELECT 1").(*Explain)
	if ex.Stmt == nil {
		t.Error("unknown options should be skipped")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"CREATE TABLE t (c NOTATYPE)",
		"INSERT INTO t VALUES",
		"SELECT * FROM t WHERE",
		"SELECT * FROM (SELECT 1)", // derived table needs alias
		"SELECT CASE END",
		"SELECT * FROM t extra_token ,",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestSQLRoundTrip(t *testing.T) {
	inputs := []string{
		"SELECT DISTINCT t1.c0 AS x FROM t0 INNER JOIN t1 ON (t0.c0 = t1.c0) WHERE (t0.c0 < 100) GROUP BY t1.c0 HAVING (COUNT(*) > 1) ORDER BY x DESC LIMIT 10",
		"SELECT c0 FROM t0 UNION SELECT c0 FROM t2",
		"INSERT INTO t0 (c1, c0) VALUES (0, 1)",
		"UPDATE t0 SET c0 = 1 WHERE (c1 IS NULL)",
		"DELETE FROM t0 WHERE (c0 IN (1, 2))",
		"CREATE TABLE t (a INT PRIMARY KEY, b TEXT)",
		"CREATE UNIQUE INDEX i ON t (a)",
		"SELECT * FROM t0 LEFT JOIN t1 ON (t0.a = t1.a)",
		"SELECT (SELECT MAX(c0) FROM t1) FROM t0",
	}
	for _, in := range inputs {
		stmt := parseOK(t, in)
		out := stmt.SQL()
		stmt2 := parseOK(t, out)
		if stmt2.SQL() != out {
			t.Errorf("SQL round trip unstable:\n1st: %s\n2nd: %s", out, stmt2.SQL())
		}
	}
}

// TestParsePooledTokensConcurrent parses statements from several
// goroutines at once, so Parse's pooled token slices pass between them,
// and checks every outcome against a sequential parse. The inputs mix
// valid statements, lexer and parser errors (both return the slice to
// the pool) and one statement too long for the pool to keep.
func TestParsePooledTokensConcurrent(t *testing.T) {
	long := "SELECT c0 FROM t0 WHERE c0 IN (" + strings.Repeat("1, ", maxPooledTokens) + "2)"
	inputs := []string{
		"SELECT DISTINCT t1.c0 AS x FROM t0 INNER JOIN t1 ON (t0.c0 = t1.c0) WHERE (t0.c0 < 100) ORDER BY x DESC LIMIT 10",
		"SELECT * FROM t0 WHERE c1 = 'it''s' AND c2 LIKE 'a%'",
		"INSERT INTO t0 (c1, c0) VALUES (0, 1.5e3)",
		"SELECT c0 FROM t0 WHERE c1 = 'open",
		"SELECT c0 FROM t0 WHERE c1 = #",
		"SELECT c0 FROM t0 t1 t2",
		long,
	}
	outcome := func(in string) string {
		stmt, err := Parse(in)
		if err != nil {
			return "error: " + err.Error()
		}
		return stmt.SQL()
	}
	want := make([]string, len(inputs))
	for i, in := range inputs {
		want[i] = outcome(in)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(inputs)
				if got := outcome(inputs[i]); got != want[i] {
					errs <- fmt.Errorf("input %d parsed to %q, want %q", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestContainsHelpers(t *testing.T) {
	sel := parseOK(t, "SELECT SUM(c0) FROM t0 WHERE c1 IN (SELECT c1 FROM t1)").(*Select)
	if !ContainsAggregate(sel.Core.Items[0].Expr) {
		t.Error("SUM should be detected as aggregate")
	}
	if !ContainsSubquery(sel.Core.Where) {
		t.Error("IN-subquery should be detected")
	}
	if ContainsAggregate(sel.Core.Where) {
		t.Error("no aggregate in where")
	}
}

func TestParseQuotedStringEscapes(t *testing.T) {
	sel := parseOK(t, "SELECT 'it''s'").(*Select)
	lit := sel.Core.Items[0].Expr.(*Literal)
	if lit.Val.S != "it's" {
		t.Errorf("string literal = %q", lit.Val.S)
	}
	if !strings.Contains(lit.SQL(), "''") {
		t.Errorf("re-rendered literal must escape: %q", lit.SQL())
	}
}

func TestParseGreatestCall(t *testing.T) {
	// The expression from the paper's Listing 3.
	sel := parseOK(t, "SELECT * FROM t0 WHERE t0.c1 IN (GREATEST(0.1, 0.2))").(*Select)
	in := sel.Core.Where.(*InList)
	fc := in.List[0].(*FuncCall)
	if fc.Name != "GREATEST" || len(fc.Args) != 2 {
		t.Fatalf("GREATEST parse: %+v", fc)
	}
	if lit := fc.Args[0].(*Literal); lit.Val.K != datum.KFloat {
		t.Error("0.1 should parse as FLOAT")
	}
}
