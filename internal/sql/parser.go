package sql

import (
	"fmt"
	"strconv"
	"strings"

	"uplan/internal/datum"
)

// Parse parses a single SQL statement.
func Parse(input string) (Statement, error) {
	buf := tokenPool.Get().(*[]Token)
	defer putTokens(buf)
	toks, err := lexInto(*buf, input)
	*buf = toks
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TSymbol, ";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected trailing input at %q", p.peek().Text)
	}
	return stmt, nil
}

// putTokens returns Parse's token slice to tokenPool, dropping its
// references into the parsed input first.
func putTokens(buf *[]Token) {
	if cap(*buf) > maxPooledTokens {
		return
	}
	clear(*buf)
	*buf = (*buf)[:0]
	tokenPool.Put(buf)
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(input string) (*Select, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("sql: expected SELECT, got %T", stmt)
	}
	return sel, nil
}

// MustParse parses input and panics on error; for tests and static queries.
func MustParse(input string) Statement {
	stmt, err := Parse(input)
	if err != nil {
		panic(fmt.Sprintf("MustParse(%q): %v", input, err))
	}
	return stmt
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token   { return p.toks[p.pos] }
func (p *parser) next() Token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool   { return p.peek().Kind == TEOF }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(s int) { p.pos = s }

// accept consumes the next token if it has the kind and text. Keyword
// tokens carry their canonical upper-case text (see keyword) and callers
// pass canonical text, so the comparison is exact.
func (p *parser) accept(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && t.Text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool { return p.accept(TKeyword, kw) }

func (p *parser) expect(kind TokenKind, text string) error {
	if !p.accept(kind, text) {
		return fmt.Errorf("sql: expected %q, found %q at offset %d",
			text, p.peek().Text, p.peek().Pos)
	}
	return nil
}

func (p *parser) expectKw(kw string) error { return p.expect(TKeyword, kw) }

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind == TIdent {
		p.pos++
		return t.Text, nil
	}
	// Non-reserved usage of type keywords as identifiers (e.g. a column
	// named "date") is permitted.
	if t.Kind == TKeyword {
		switch t.Text {
		case "DATE", "KEY", "SET", "TEXT":
			p.pos++
			return strings.ToLower(t.Text), nil
		}
	}
	return "", fmt.Errorf("sql: expected identifier, found %q at offset %d", t.Text, t.Pos)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TKeyword {
		return nil, fmt.Errorf("sql: expected statement keyword, found %q", t.Text)
	}
	switch t.Text {
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		return p.parseExplain()
	}
	return nil, fmt.Errorf("sql: unsupported statement %q", t.Text)
}

func (p *parser) parseExplain() (Statement, error) {
	p.next() // EXPLAIN
	ex := &Explain{}
	if p.acceptKw("ANALYZE") {
		ex.Analyze = true
	}
	if p.accept(TSymbol, "(") {
		for {
			if p.acceptKw("ANALYZE") {
				ex.Analyze = true
				if p.accept(TKeyword, "TRUE") || p.accept(TKeyword, "FALSE") {
					// accept EXPLAIN (ANALYZE TRUE) style
				}
			} else if p.acceptKw("FORMAT") {
				f := p.next()
				ex.Format = strings.ToUpper(f.Text)
			} else {
				// skip unknown option token and optional value
				p.next()
				if p.peek().Kind != TSymbol {
					p.next()
				}
			}
			if p.accept(TSymbol, ",") {
				continue
			}
			break
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	ex.Stmt = stmt
	return ex, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.acceptKw("TABLE"):
		if unique {
			return nil, fmt.Errorf("sql: UNIQUE TABLE is not valid")
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, "("); err != nil {
			return nil, err
		}
		ct := &CreateTable{Name: name}
		for {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
			if p.accept(TSymbol, ",") {
				continue
			}
			break
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		return ct, nil
	case p.acceptKw("INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, "("); err != nil {
			return nil, err
		}
		ci := &CreateIndex{Name: name, Table: table, Unique: unique}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ci.Columns = append(ci.Columns, col)
			if p.accept(TSymbol, ",") {
				continue
			}
			break
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		return ci, nil
	}
	return nil, fmt.Errorf("sql: expected TABLE or INDEX after CREATE")
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	t := p.next()
	if t.Kind != TKeyword {
		return ColumnDef{}, fmt.Errorf("sql: expected column type, found %q", t.Text)
	}
	var typ string
	switch t.Text {
	case "INT", "INTEGER":
		typ = "INT"
	case "FLOAT", "REAL", "DECIMAL":
		typ = "FLOAT"
		// Optional precision: DECIMAL(15,2)
		if p.accept(TSymbol, "(") {
			for !p.accept(TSymbol, ")") {
				p.next()
			}
		}
	case "TEXT", "VARCHAR", "DATE":
		typ = "TEXT"
		if p.accept(TSymbol, "(") {
			for !p.accept(TSymbol, ")") {
				p.next()
			}
		}
	case "BOOL", "BOOLEAN":
		typ = "BOOL"
	default:
		return ColumnDef{}, fmt.Errorf("sql: unsupported column type %q", t.Text)
	}
	col := ColumnDef{Name: name, Type: typ}
	for {
		switch {
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return ColumnDef{}, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return ColumnDef{}, err
			}
			col.NotNull = true
		default:
			return col, nil
		}
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.accept(TSymbol, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.accept(TSymbol, ",") {
				continue
			}
			break
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(TSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(TSymbol, ",") {
				continue
			}
			break
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(TSymbol, ",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Sets = append(upd.Sets, SetClause{Column: col, Value: val})
		if p.accept(TSymbol, ",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

// parseSelect parses a full select including set operations, ORDER BY, and
// LIMIT. Set operations are left-associative with equal precedence.
func (p *parser) parseSelect() (*Select, error) {
	left, err := p.parseSelectCoreWrapped()
	if err != nil {
		return nil, err
	}
	for {
		var op CompoundOp
		switch {
		case p.acceptKw("UNION"):
			if p.acceptKw("ALL") {
				op = UnionAllOp
			} else {
				op = UnionOp
			}
		case p.acceptKw("INTERSECT"):
			op = IntersectOp
		case p.acceptKw("EXCEPT"):
			op = ExceptOp
		default:
			goto tail
		}
		{
			right, err := p.parseSelectCoreWrapped()
			if err != nil {
				return nil, err
			}
			left = &Select{Compound: &Compound{Op: op, Left: left, Right: right}}
		}
	}
tail:
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			left.OrderBy = append(left.OrderBy, item)
			if p.accept(TSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left.Limit = e
	}
	if p.acceptKw("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left.Offset = e
	}
	return left, nil
}

func (p *parser) parseSelectCoreWrapped() (*Select, error) {
	core, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	return &Select{Core: core}, nil
}

func (p *parser) parseSelectCore() (*SelectCore, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	core := &SelectCore{}
	if p.acceptKw("DISTINCT") {
		core.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if p.accept(TSymbol, ",") {
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		core.From = from
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if p.accept(TSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = h
	}
	return core, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*" or "t.*"
	if p.accept(TSymbol, "*") {
		return SelectItem{Expr: &Star{}}, nil
	}
	save := p.save()
	if p.peek().Kind == TIdent {
		name := p.next().Text
		if p.accept(TSymbol, ".") && p.accept(TSymbol, "*") {
			return SelectItem{Expr: &Star{Table: name}}, nil
		}
		p.restore(save)
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseFrom() (TableRef, error) {
	left, err := p.parseTableRefAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TSymbol, ","):
			right, err := p.parseTableRefAtom()
			if err != nil {
				return nil, err
			}
			left = &JoinRef{Type: JoinCross, Left: left, Right: right}
		case p.acceptKw("CROSS"):
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTableRefAtom()
			if err != nil {
				return nil, err
			}
			left = &JoinRef{Type: JoinCross, Left: left, Right: right}
		case p.acceptKw("INNER"), p.acceptKw("JOIN"):
			// "INNER JOIN" or bare "JOIN"
			if strings.EqualFold(p.toks[p.pos-1].Text, "INNER") {
				if err := p.expectKw("JOIN"); err != nil {
					return nil, err
				}
			}
			right, err := p.parseTableRefAtom()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			left = &JoinRef{Type: JoinInner, Left: left, Right: right, On: on}
		case p.acceptKw("LEFT"):
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTableRefAtom()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			left = &JoinRef{Type: JoinLeft, Left: left, Right: right, On: on}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTableRefAtom() (TableRef, error) {
	if p.accept(TSymbol, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		p.acceptKw("AS")
		alias, err := p.ident()
		if err != nil {
			return nil, fmt.Errorf("sql: derived table requires an alias: %w", err)
		}
		return &SubqueryRef{Sub: sub, Alias: alias}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ref := &BaseTable{Name: name, Alias: name}
	if p.acceptKw("AS") {
		alias, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if p.peek().Kind == TIdent {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

// ------------------------------------------------------------ expressions

// parseExpr parses with standard precedence:
// OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < additive < multiplicative
// < unary < primary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TSymbol, "="):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpEq, L: left, R: r}
		case p.accept(TSymbol, "<>"), p.accept(TSymbol, "!="):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpNe, L: left, R: r}
		case p.accept(TSymbol, "<="):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpLe, L: left, R: r}
		case p.accept(TSymbol, ">="):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpGe, L: left, R: r}
		case p.accept(TSymbol, "<"):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpLt, L: left, R: r}
		case p.accept(TSymbol, ">"):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpGt, L: left, R: r}
		case p.acceptKw("IS"):
			neg := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			left = &IsNull{X: left, Neg: neg}
		case p.acceptKw("IN"):
			e, err := p.parseInTail(left, false)
			if err != nil {
				return nil, err
			}
			left = e
		case p.acceptKw("NOT"):
			switch {
			case p.acceptKw("IN"):
				e, err := p.parseInTail(left, true)
				if err != nil {
					return nil, err
				}
				left = e
			case p.acceptKw("BETWEEN"):
				e, err := p.parseBetweenTail(left, true)
				if err != nil {
					return nil, err
				}
				left = e
			case p.acceptKw("LIKE"):
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &Like{X: left, Pattern: pat, Neg: true}
			default:
				return nil, fmt.Errorf("sql: expected IN/BETWEEN/LIKE after NOT")
			}
		case p.acceptKw("BETWEEN"):
			e, err := p.parseBetweenTail(left, false)
			if err != nil {
				return nil, err
			}
			left = e
		case p.acceptKw("LIKE"):
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Like{X: left, Pattern: pat}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseInTail(left Expr, neg bool) (Expr, error) {
	if err := p.expect(TSymbol, "("); err != nil {
		return nil, err
	}
	if p.peek().Kind == TKeyword && p.peek().Text == "SELECT" {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		return &InSubquery{X: left, Sub: sub, Neg: neg}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.accept(TSymbol, ",") {
			continue
		}
		break
	}
	if err := p.expect(TSymbol, ")"); err != nil {
		return nil, err
	}
	return &InList{X: left, List: list, Neg: neg}, nil
}

func (p *parser) parseBetweenTail(left Expr, neg bool) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &Between{X: left, Lo: lo, Hi: hi, Neg: neg}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TSymbol, "+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpAdd, L: left, R: r}
		case p.accept(TSymbol, "-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpSub, L: left, R: r}
		case p.accept(TSymbol, "||"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpCat, L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TSymbol, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpMul, L: left, R: r}
		case p.accept(TSymbol, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpDiv, L: left, R: r}
		case p.accept(TSymbol, "%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: OpMod, L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok {
			switch lit.Val.K {
			case datum.KInt:
				return &Literal{Val: datum.Int(-lit.Val.I)}, nil
			case datum.KFloat:
				return &Literal{Val: datum.Float(-lit.Val.F)}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	p.accept(TSymbol, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TInt:
		p.next()
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.Text)
			}
			return &Literal{Val: datum.Float(f)}, nil
		}
		return &Literal{Val: datum.Int(i)}, nil
	case TFloat:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.Text)
		}
		return &Literal{Val: datum.Float(f)}, nil
	case TString:
		p.next()
		return &Literal{Val: datum.Str(t.Text)}, nil
	case TKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Val: datum.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: datum.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: datum.Bool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.next()
			if err := p.expect(TSymbol, "("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TSymbol, ")"); err != nil {
				return nil, err
			}
			return &Exists{Sub: sub}, nil
		case "NOT":
			p.next()
			x, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: "NOT", X: x}, nil
		}
		return nil, fmt.Errorf("sql: unexpected keyword %q in expression", t.Text)
	case TSymbol:
		if t.Text == "(" {
			p.next()
			// Parenthesized subquery or expression.
			if p.peek().Kind == TKeyword && p.peek().Text == "SELECT" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expect(TSymbol, ")"); err != nil {
					return nil, err
				}
				return &ScalarSubquery{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, fmt.Errorf("sql: unexpected symbol %q in expression", t.Text)
	case TIdent:
		name := p.next().Text
		// Function call?
		if p.accept(TSymbol, "(") {
			return p.parseFuncCallTail(strings.ToUpper(name))
		}
		// Qualified column?
		if p.accept(TSymbol, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q in expression", t.Text)
}

func (p *parser) parseFuncCallTail(name string) (Expr, error) {
	fc := &FuncCall{Name: name}
	if p.accept(TSymbol, "*") {
		fc.Star = true
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.accept(TSymbol, ")") {
		return fc, nil
	}
	if p.acceptKw("DISTINCT") {
		fc.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if p.accept(TSymbol, ",") {
			continue
		}
		break
	}
	if err := p.expect(TSymbol, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseCase() (Expr, error) {
	p.next() // CASE
	c := &Case{}
	if !(p.peek().Kind == TKeyword && p.peek().Text == "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE requires at least one WHEN arm")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}
