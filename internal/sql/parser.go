package sql

import (
	"fmt"
	"strconv"
	"strings"

	"aggview/internal/types"
)

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements. texts
// holds each statement's own source text with the whitespace and comments
// between its tokens collapsed (see collapseSpace), so callers can label a
// statement without quoting the whole script — and, because the text still
// lexes to the statement's tokens, key a plan cache by it.
func ParseScript(src string) (stmts []Statement, texts []string, err error) {
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{src: src, toks: toks}
	for {
		for p.accept(tokSymbol, ";") {
		}
		if p.at(tokEOF, "") {
			return stmts, texts, nil
		}
		start := p.cur().pos
		stmt, err := p.statement()
		if err != nil {
			return nil, nil, err
		}
		stmts = append(stmts, stmt)
		texts = append(texts, collapseSpace(src[start:p.cur().pos]))
		if !p.accept(tokSymbol, ";") && !p.at(tokEOF, "") {
			return nil, nil, p.errf("expected ';' between statements, got %q", p.cur().text)
		}
	}
}

type parser struct {
	src  string
	toks []token
	pos  int
	// nparams counts `?` placeholders seen so far; each placeholder is
	// assigned the next 0-based ordinal in statement text order.
	nparams int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return t, p.errf("expected %s, got %q", want, t.text)
	}
	p.pos++
	return t, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.selectStmt()
	case p.at(tokKeyword, "CREATE"):
		return p.createStmt()
	case p.at(tokKeyword, "DROP"):
		return p.dropStmt()
	case p.at(tokKeyword, "INSERT"):
		return p.insertStmt()
	case p.at(tokKeyword, "ANALYZE"):
		return p.analyzeStmt()
	case p.at(tokKeyword, "EXPLAIN"):
		p.pos++
		analyze := p.accept(tokKeyword, "ANALYZE")
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &Explain{Query: sel, Analyze: analyze}, nil
	default:
		return nil, p.errf("unexpected statement start %q", p.cur().text)
	}
}

// --- DDL ---------------------------------------------------------------

func (p *parser) createStmt() (Statement, error) {
	p.pos++ // CREATE
	switch {
	case p.accept(tokKeyword, "TABLE"):
		return p.createTable()
	case p.accept(tokKeyword, "VIEW"):
		return p.createView()
	case p.accept(tokKeyword, "MATERIALIZED"):
		if _, err := p.expect(tokKeyword, "VIEW"); err != nil {
			return nil, err
		}
		return p.createMaterializedView()
	default:
		return nil, p.errf("expected TABLE, VIEW or MATERIALIZED VIEW after CREATE")
	}
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		switch {
		case p.at(tokKeyword, "PRIMARY"):
			p.pos++
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenIdentList()
			if err != nil {
				return nil, err
			}
			ct.PrimaryKey = append(ct.PrimaryKey, cols...)
		case p.at(tokKeyword, "FOREIGN"):
			p.pos++
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenIdentList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.ident()
			if err != nil {
				return nil, err
			}
			refCols, err := p.parenIdentList()
			if err != nil {
				return nil, err
			}
			ct.ForeignKeys = append(ct.ForeignKeys, ForeignKeyDef{Cols: cols, RefTable: ref, RefCols: refCols})
		default:
			col, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			ct.Cols = append(ct.Cols, col)
			if col.PrimaryKey {
				ct.PrimaryKey = append(ct.PrimaryKey, col.Name)
			}
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) columnDef() (ColumnDef, error) {
	var cd ColumnDef
	name, err := p.ident()
	if err != nil {
		return cd, err
	}
	cd.Name = name
	kind, err := p.typeName()
	if err != nil {
		return cd, err
	}
	cd.Type = kind
	if p.accept(tokKeyword, "PRIMARY") {
		if _, err := p.expect(tokKeyword, "KEY"); err != nil {
			return cd, err
		}
		cd.PrimaryKey = true
	}
	return cd, nil
}

func (p *parser) typeName() (types.Kind, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return types.KindNull, p.errf("expected a type name, got %q", t.text)
	}
	p.pos++
	switch t.text {
	case "INT", "INTEGER", "BIGINT":
		return types.KindInt, nil
	case "FLOAT", "REAL":
		return types.KindFloat, nil
	case "DOUBLE":
		p.accept(tokKeyword, "PRECISION")
		return types.KindFloat, nil
	case "TEXT":
		return types.KindString, nil
	case "VARCHAR", "CHAR":
		if p.accept(tokSymbol, "(") {
			if _, err := p.expect(tokNumber, ""); err != nil {
				return types.KindNull, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return types.KindNull, err
			}
		}
		return types.KindString, nil
	case "BOOLEAN", "BOOL":
		return types.KindBool, nil
	default:
		return types.KindNull, p.errf("unknown type %q", t.text)
	}
}

func (p *parser) parenIdentList() ([]string, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) createView() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.at(tokSymbol, "(") {
		cols, err = p.parenIdentList()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	start := p.cur().pos
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	end := p.cur().pos
	text := strings.TrimSpace(p.src[start:min(end, len(p.src))])
	text = strings.TrimSuffix(text, ";")
	return &CreateView{Name: name, Cols: cols, Query: sel, Text: text}, nil
}

func (p *parser) createMaterializedView() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	start := p.cur().pos
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	end := p.cur().pos
	text := strings.TrimSpace(p.src[start:min(end, len(p.src))])
	text = strings.TrimSuffix(text, ";")
	return &CreateMaterializedView{Name: name, Query: sel, Text: text}, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.pos++ // DROP
	if p.accept(tokKeyword, "MATERIALIZED") {
		if _, err := p.expect(tokKeyword, "VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropMaterializedView{Name: name}, nil
	}
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.pos++ // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) analyzeStmt() (Statement, error) {
	p.pos++ // ANALYZE
	a := &Analyze{}
	if p.at(tokIdent, "") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		a.Table = name
	}
	return a, nil
}

// --- SELECT ------------------------------------------------------------

func (p *parser) selectStmt() (*Select, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	if p.accept(tokKeyword, "DISTINCT") {
		sel.Distinct = true
	} else {
		p.accept(tokKeyword, "ALL")
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.fromItem()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, fi)
		// INNER JOIN ... ON pred desugars to another from-item plus a
		// WHERE conjunct; LEFT/RIGHT/FULL [OUTER] JOIN keeps the ON
		// predicate attached to the item — it is a match condition for
		// null-padding, not a filter, so it must not reach WHERE.
	joinLoop:
		for {
			jt := JoinNone
			switch {
			case p.accept(tokKeyword, "INNER"):
				if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
					return nil, err
				}
			case p.at(tokKeyword, "LEFT") || p.at(tokKeyword, "RIGHT") || p.at(tokKeyword, "FULL"):
				switch p.cur().text {
				case "LEFT":
					jt = JoinLeft
				case "RIGHT":
					jt = JoinRight
				default:
					jt = JoinFull
				}
				p.pos++
				p.accept(tokKeyword, "OUTER")
				if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
					return nil, err
				}
			case p.accept(tokKeyword, "JOIN"):
				// bare JOIN = INNER JOIN
			default:
				break joinLoop
			}
			rhs, err := p.fromItem()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.expr()
			if err != nil {
				return nil, err
			}
			if jt == JoinNone {
				sel.From = append(sel.From, rhs)
				if sel.Where == nil {
					sel.Where = on
				} else {
					sel.Where = Bin{Op: "AND", L: sel.Where, R: on}
				}
			} else {
				rhs.Join, rhs.On = jt, on
				sel.From = append(sel.From, rhs)
			}
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		if sel.Where == nil {
			sel.Where = w
		} else {
			sel.Where = Bin{Op: "AND", L: sel.Where, R: w}
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			n, err := p.columnName()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, n)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		h, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{E: e}
			if p.accept(tokKeyword, "DESC") {
				oi.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, oi)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{E: e}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.at(tokIdent, "") {
		item.Alias = p.cur().text
		p.pos++
	}
	return item, nil
}

func (p *parser) fromItem() (FromItem, error) {
	if p.accept(tokSymbol, "(") {
		sub, err := p.selectStmt()
		if err != nil {
			return FromItem{}, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return FromItem{}, err
		}
		p.accept(tokKeyword, "AS")
		alias, err := p.ident()
		if err != nil {
			return FromItem{}, fmt.Errorf("sql: derived table requires an alias: %w", err)
		}
		return FromItem{Subquery: sub, Alias: alias}, nil
	}
	name, err := p.ident()
	if err != nil {
		return FromItem{}, err
	}
	fi := FromItem{Table: name, Alias: name}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.ident()
		if err != nil {
			return FromItem{}, err
		}
		fi.Alias = alias
	} else if p.at(tokIdent, "") {
		fi.Alias = p.cur().text
		p.pos++
	}
	return fi, nil
}

func (p *parser) columnName() (Name, error) {
	first, err := p.ident()
	if err != nil {
		return Name{}, err
	}
	if p.accept(tokSymbol, ".") {
		second, err := p.ident()
		if err != nil {
			return Name{}, err
		}
		return Name{Qual: first, Col: second}, nil
	}
	return Name{Col: first}, nil
}

// --- expressions ---------------------------------------------------------

// expr parses with precedence OR < AND < NOT < comparison < additive <
// multiplicative < unary.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	// EXISTS subqueries are prefix forms at comparison level.
	if p.at(tokKeyword, "EXISTS") {
		p.pos++
		sel, err := p.parenSelect()
		if err != nil {
			return nil, err
		}
		return ExistsSubquery{Sel: sel}, nil
	}
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// expr IS [NOT] NULL
	if p.accept(tokKeyword, "IS") {
		negNull := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return IsNull{E: l, Neg: negNull}, nil
	}
	// expr [NOT] IN (select)
	neg := false
	if p.at(tokKeyword, "NOT") && p.peek().kind == tokKeyword && p.peek().text == "IN" {
		p.pos += 2
		neg = true
		sel, err := p.parenSelect()
		if err != nil {
			return nil, err
		}
		return InSubquery{L: l, Sel: sel, Neg: neg}, nil
	}
	if p.accept(tokKeyword, "IN") {
		sel, err := p.parenSelect()
		if err != nil {
			return nil, err
		}
		return InSubquery{L: l, Sel: sel}, nil
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return Bin{Op: "AND",
			L: Bin{Op: ">=", L: l, R: lo},
			R: Bin{Op: "<=", L: l, R: hi}}, nil
	}
	t := p.cur()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "==", "<>", "!=", "<", "<=", ">", ">=":
			p.pos++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "==" {
				op = "="
			}
			if op == "!=" {
				op = "<>"
			}
			return Bin{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parenSelect() (*Select, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.pos++
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: t.text, L: l, R: r}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/") {
			return l, nil
		}
		p.pos++
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: t.text, L: l, R: r}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if l, ok := e.(Lit); ok {
			switch l.Val.K {
			case types.KindInt:
				return Lit{Val: types.NewInt(-l.Val.I)}, nil
			case types.KindFloat:
				return Lit{Val: types.NewFloat(-l.Val.F)}, nil
			}
		}
		return Neg{E: e}, nil
	}
	p.accept(tokSymbol, "+")
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return Lit{Val: types.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return Lit{Val: types.NewFloat(f)}, nil
		}
		return Lit{Val: types.NewInt(n)}, nil

	case t.kind == tokString:
		p.pos++
		return Lit{Val: types.NewString(t.text)}, nil

	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.pos++
		return Lit{Val: types.NewBool(t.text == "TRUE")}, nil

	case t.kind == tokKeyword && t.text == "NULL":
		p.pos++
		return Lit{Val: types.Null()}, nil

	case t.kind == tokSymbol && t.text == "?":
		p.pos++
		prm := Param{Idx: p.nparams}
		p.nparams++
		return prm, nil

	case t.kind == tokSymbol && t.text == "(":
		// Parenthesized expression or scalar subquery.
		if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
			sel, err := p.parenSelect()
			if err != nil {
				return nil, err
			}
			return Subquery{Sel: sel}, nil
		}
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.kind == tokIdent:
		// Function call, qualified name, or bare column.
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			fname := strings.ToUpper(t.text)
			p.pos += 2 // ident and '('
			if p.accept(tokSymbol, "*") {
				if _, err := p.expect(tokSymbol, ")"); err != nil {
					return nil, err
				}
				return Call{Func: fname, Star: true}, nil
			}
			var args []Expr
			if !p.at(tokSymbol, ")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.accept(tokSymbol, ",") {
						continue
					}
					break
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return Call{Func: fname, Args: args}, nil
		}
		return p.columnName()

	default:
		return nil, p.errf("unexpected token %q in expression", t.text)
	}
}
