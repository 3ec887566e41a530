package sql

import (
	"strings"
	"testing"

	"aggview/internal/types"
)

func parseSelect(t *testing.T, src string) *Select {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := stmt.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, stmt)
	}
	return sel
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT e1.sal, 'it''s' FROM emp -- comment\nWHERE a <= 1.5e3;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "SELECT e1 . sal , it's FROM emp WHERE a <= 1.5e3 ;") {
		t.Fatalf("lexed: %q", joined)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("select 'unterminated"); err == nil {
		t.Errorf("unterminated string accepted")
	}
	if _, err := lex("select @"); err == nil {
		t.Errorf("bad character accepted")
	}
}

func TestParseExample1(t *testing.T) {
	sel := parseSelect(t, `
		select e1.sal
		from emp e1, a1 b
		where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal`)
	if len(sel.Items) != 1 || sel.Items[0].Star {
		t.Fatalf("items = %+v", sel.Items)
	}
	if len(sel.From) != 2 || sel.From[0].Alias != "e1" || sel.From[1].Table != "a1" || sel.From[1].Alias != "b" {
		t.Fatalf("from = %+v", sel.From)
	}
	if sel.Where == nil {
		t.Fatalf("missing where")
	}
}

func TestParseGroupByHaving(t *testing.T) {
	sel := parseSelect(t, `
		select e2.dno, avg(e2.sal) as asal
		from emp e2
		group by e2.dno
		having avg(e2.sal) > 100 and count(*) > 2`)
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].Qual != "e2" || sel.GroupBy[0].Col != "dno" {
		t.Fatalf("group by = %+v", sel.GroupBy)
	}
	if sel.Having == nil {
		t.Fatalf("missing having")
	}
	if sel.Items[1].Alias != "asal" {
		t.Fatalf("alias = %q", sel.Items[1].Alias)
	}
	call, ok := sel.Items[1].E.(Call)
	if !ok || call.Func != "AVG" || len(call.Args) != 1 {
		t.Fatalf("agg item = %+v", sel.Items[1].E)
	}
}

func TestParseJoinSyntax(t *testing.T) {
	sel := parseSelect(t, `
		select * from emp e join dept d on e.dno = d.dno
		inner join dept d2 on d.dno = d2.dno
		where d.budget < 1000000`)
	if len(sel.From) != 3 {
		t.Fatalf("from = %+v", sel.From)
	}
	// The two ON predicates and the WHERE merge into one conjunction.
	s := ExprString(sel.Where)
	if !strings.Contains(s, "e.dno") || !strings.Contains(s, "d2.dno") || !strings.Contains(s, "budget") {
		t.Fatalf("where = %s", s)
	}
}

func TestParseDerivedTable(t *testing.T) {
	sel := parseSelect(t, `
		select b.asal from (select dno, avg(sal) as asal from emp group by dno) as b
		where b.asal > 10`)
	if sel.From[0].Subquery == nil || sel.From[0].Alias != "b" {
		t.Fatalf("derived table = %+v", sel.From[0])
	}
	if _, err := Parse(`select * from (select 1 from t)`); err == nil {
		t.Errorf("derived table without alias accepted")
	}
}

func TestParseSubqueries(t *testing.T) {
	sel := parseSelect(t, `
		select e1.sal from emp e1
		where e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`)
	cmp, ok := sel.Where.(Bin)
	if !ok || cmp.Op != ">" {
		t.Fatalf("where = %+v", sel.Where)
	}
	if _, ok := cmp.R.(Subquery); !ok {
		t.Fatalf("rhs = %T", cmp.R)
	}

	sel = parseSelect(t, `select * from emp where dno in (select dno from dept where budget < 10)`)
	in, ok := sel.Where.(InSubquery)
	if !ok || in.Neg {
		t.Fatalf("where = %+v", sel.Where)
	}

	sel = parseSelect(t, `select * from emp where dno not in (select dno from dept)`)
	in, ok = sel.Where.(InSubquery)
	if !ok || !in.Neg {
		t.Fatalf("where = %+v", sel.Where)
	}

	sel = parseSelect(t, `select * from emp e where exists (select * from dept d where d.dno = e.dno)`)
	if _, ok := sel.Where.(ExistsSubquery); !ok {
		t.Fatalf("where = %+v", sel.Where)
	}
	sel = parseSelect(t, `select * from emp e where not exists (select * from dept d where d.dno = e.dno)`)
	n, ok := sel.Where.(Not)
	if !ok {
		t.Fatalf("where = %+v", sel.Where)
	}
	if _, ok := n.E.(ExistsSubquery); !ok {
		t.Fatalf("NOT wraps %T", n.E)
	}
}

func TestParseOrderLimitDistinct(t *testing.T) {
	sel := parseSelect(t, `select distinct sal from emp order by sal desc, eno limit 10`)
	if !sel.Distinct || sel.Limit != 10 {
		t.Fatalf("distinct/limit = %v %d", sel.Distinct, sel.Limit)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order by = %+v", sel.OrderBy)
	}
}

func TestParseExpressions(t *testing.T) {
	sel := parseSelect(t, `select sal * 2 + 1 as x from emp where not (a = 1 or b <> 2) and c between 1 and 5`)
	if sel.Items[0].Alias != "x" {
		t.Fatalf("alias = %q", sel.Items[0].Alias)
	}
	b, ok := sel.Items[0].E.(Bin)
	if !ok || b.Op != "+" {
		t.Fatalf("precedence wrong: %s", ExprString(sel.Items[0].E))
	}
	s := ExprString(sel.Where)
	if !strings.Contains(s, ">=") || !strings.Contains(s, "<=") {
		t.Fatalf("between not desugared: %s", s)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	sel := parseSelect(t, `select -5, -2.5, -x from emp`)
	if l, ok := sel.Items[0].E.(Lit); !ok || l.Val.I != -5 {
		t.Fatalf("int literal = %+v", sel.Items[0].E)
	}
	if l, ok := sel.Items[1].E.(Lit); !ok || l.Val.F() != -2.5 {
		t.Fatalf("float literal = %+v", sel.Items[1].E)
	}
	if _, ok := sel.Items[2].E.(Neg); !ok {
		t.Fatalf("neg column = %+v", sel.Items[2].E)
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse(`create table emp (
		eno int primary key,
		dno integer,
		sal double precision,
		name varchar(20),
		ok boolean,
		foreign key (dno) references dept (dno)
	)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTable)
	if ct.Name != "emp" || len(ct.Cols) != 5 {
		t.Fatalf("table = %+v", ct)
	}
	if ct.Cols[0].Type != types.KindInt || ct.Cols[2].Type != types.KindFloat ||
		ct.Cols[3].Type != types.KindString || ct.Cols[4].Type != types.KindBool {
		t.Fatalf("types = %+v", ct.Cols)
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "eno" {
		t.Fatalf("pk = %v", ct.PrimaryKey)
	}
	if len(ct.ForeignKeys) != 1 || ct.ForeignKeys[0].RefTable != "dept" {
		t.Fatalf("fk = %+v", ct.ForeignKeys)
	}
}

func TestParseCreateTableTablePK(t *testing.T) {
	stmt, err := Parse(`create table t (a int, b int, primary key (a, b))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTable)
	if len(ct.PrimaryKey) != 2 {
		t.Fatalf("pk = %v", ct.PrimaryKey)
	}
}

func TestParseCreateViewPreservesText(t *testing.T) {
	stmt, err := Parse(`create view a1 (dno, asal) as select e2.dno, avg(e2.sal) from emp e2 group by e2.dno`)
	if err != nil {
		t.Fatal(err)
	}
	cv := stmt.(*CreateView)
	if cv.Name != "a1" || len(cv.Cols) != 2 {
		t.Fatalf("view = %+v", cv)
	}
	if !strings.HasPrefix(cv.Text, "select") || !strings.Contains(cv.Text, "group by") {
		t.Fatalf("text = %q", cv.Text)
	}
	if cv.Query == nil || len(cv.Query.GroupBy) != 1 {
		t.Fatalf("query = %+v", cv.Query)
	}
}

func TestParseCreateIndexInsertAnalyzeExplainDrop(t *testing.T) {
	// CREATE INDEX is not part of the dialect.
	if stmt, err := Parse(`create index emp_dno on emp (dno)`); err == nil || !strings.Contains(err.Error(), "after CREATE") {
		t.Fatalf("create index: %+v, %v; want a parse error", stmt, err)
	}

	stmt, err := Parse(`insert into emp values (1, 2, 3.5, 'x'), (2, 3, 4.5, 'y')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if ins.Table != "emp" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 4 {
		t.Fatalf("insert = %+v", ins)
	}

	stmt, err = Parse(`analyze emp`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*Analyze).Table != "emp" {
		t.Fatalf("analyze = %+v", stmt)
	}

	stmt, err = Parse(`explain select * from emp`)
	if err != nil {
		t.Fatal(err)
	}
	if ex := stmt.(*Explain); ex.Query == nil || ex.Analyze {
		t.Fatalf("explain = %+v", stmt)
	}

	stmt, err = Parse(`explain analyze select * from emp`)
	if err != nil {
		t.Fatal(err)
	}
	if ex := stmt.(*Explain); ex.Query == nil || !ex.Analyze {
		t.Fatalf("explain analyze = %+v", stmt)
	}

	// EXPLAIN ANALYZE needs a SELECT: the table form is still plain ANALYZE.
	if _, err := Parse(`explain analyze emp`); err == nil {
		t.Fatal("explain analyze emp parsed")
	}

	stmt, err = Parse(`drop table emp`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropTable).Name != "emp" {
		t.Fatalf("drop = %+v", stmt)
	}
}

func TestParseScript(t *testing.T) {
	stmts, texts, err := ParseScript(`
		create table t (a int);
		insert into t
		   values (1);
		select * from t
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	want := []string{"create table t (a int)", "insert into t values (1)", "select * from t"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("texts = %q, want %q", texts, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"select",
		"select * from",
		"select * from t where",
		"frobnicate",
		"create table t ()",
		"create table t (a frobtype)",
		"select * from t group by",
		"select * from t limit x",
		"insert into t (1)",
		"select * from t; garbage",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestExprStringCoverage(t *testing.T) {
	sel := parseSelect(t, `select count(*), sum(a), -b from t where x in (select y from u) and exists (select z from v) and not a = (select q from w)`)
	for _, it := range sel.Items {
		if ExprString(it.E) == "" {
			t.Errorf("empty render for %+v", it.E)
		}
	}
	if s := ExprString(sel.Where); !strings.Contains(s, "IN (subquery)") || !strings.Contains(s, "EXISTS") {
		t.Errorf("where render = %s", s)
	}
}
