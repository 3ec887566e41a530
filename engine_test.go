package aggview

import (
	"context"
	"strings"
	"testing"
)

// setupEmpDept creates a small engine with the running example loaded via
// SQL DDL and INSERTs, exercising the full statement path.
func setupEmpDept(t *testing.T) *Engine {
	t.Helper()
	e := Open(Config{PoolPages: 32})
	e.MustExec(`create table emp (
		eno int primary key, dno int, sal float, age int,
		foreign key (dno) references dept (dno))`)
	e.MustExec(`create table dept (dno int primary key, budget float)`)
	for i := 0; i < 200; i++ {
		dno := i % 8
		sal := 1000 + (i*37)%3000
		age := 18 + (i*13)%50
		e.MustExec(strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(
			`insert into emp values (I, D, S, A)`,
			"I", itoa(i)), "D", itoa(dno)), "S", itoa(sal)), "A", itoa(age)))
	}
	for d := 0; d < 8; d++ {
		e.MustExec(`insert into dept values (` + itoa(d) + `, ` + itoa(100000+d*100000) + `)`)
	}
	e.MustExec(`analyze`)
	return e
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestEngineDDLAndQuery(t *testing.T) {
	e := setupEmpDept(t)
	res, err := e.Query(context.Background(), `select e.dno, avg(e.sal) as asal from emp e group by e.dno order by dno`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 || res.Columns[1] != "asal" {
		t.Fatalf("result = %v cols=%v", len(res.Rows), res.Columns)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].(int64) > res.Rows[i][0].(int64) {
			t.Fatalf("order by violated")
		}
	}
}

func TestEngineNestedSubquery(t *testing.T) {
	e := setupEmpDept(t)
	res, err := e.Query(context.Background(), `
		select e1.sal from emp e1
		where e1.age < 30 and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatalf("nested query returned nothing")
	}
}

func TestEngineViewsAndModesAgree(t *testing.T) {
	e := setupEmpDept(t)
	e.MustExec(`create view a1 (dno, asal) as select e2.dno, avg(e2.sal) from emp e2 group by e2.dno`)
	q := `select e1.sal from emp e1, a1 b where e1.dno = b.dno and e1.sal > b.asal and e1.age < 40`
	var first *Result
	for _, mode := range []OptimizerMode{Traditional, PushDown, Full} {
		res, err := e.Query(context.Background(), q, WithMode(mode), WithColdCache())
		if err != nil {
			t.Fatalf("[%v] %v", mode, err)
		}
		info, io := res.Plan, res.IO
		if io.Reads == 0 {
			t.Fatalf("[%v] no IO measured", mode)
		}
		if info.EstimatedCost <= 0 {
			t.Fatalf("[%v] cost = %g", mode, info.EstimatedCost)
		}
		if first == nil {
			first = res
		} else if len(res.Rows) != len(first.Rows) {
			t.Fatalf("[%v] rows = %d, want %d", mode, len(res.Rows), len(first.Rows))
		}
	}
}

func TestEngineExplain(t *testing.T) {
	e := setupEmpDept(t)
	infos, err := e.ExplainAll(`select dno, min(sal) from emp group by dno`)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("infos = %d", len(infos))
	}
	for _, info := range infos {
		if !strings.Contains(info.PlanText, "GroupBy") {
			t.Fatalf("[%v] plan lacks group-by:\n%s", info.Mode, info.PlanText)
		}
	}
	// EXPLAIN statement form.
	res, err := e.Exec(`explain select dno from emp where dno = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() < 2 || !strings.Contains(res.String(), "Scan emp") {
		t.Fatalf("explain rows = %v", res.Rows)
	}
}

func TestEngineLimit(t *testing.T) {
	e := setupEmpDept(t)
	res, err := e.Query(context.Background(), `select eno from emp order by eno limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 || res.Rows[0][0].(int64) != 0 {
		t.Fatalf("limit result = %v", res.Rows)
	}
}

func TestEngineDrop(t *testing.T) {
	e := setupEmpDept(t)
	// CREATE INDEX is not part of the dialect: the statement fails to parse
	// and changes nothing.
	v := e.CatalogVersion()
	if _, err := e.Exec(`create index emp_dno on emp (dno)`); err == nil || !strings.Contains(err.Error(), "sql: offset") {
		t.Fatalf("create index: err = %v, want a parse error", err)
	}
	if e.CatalogVersion() != v {
		t.Fatalf("refused create index moved the catalog version %d -> %d", v, e.CatalogVersion())
	}
	if _, err := e.Exec(`drop table dept`); err != nil {
		t.Fatal(err)
	}
	if len(e.Tables()) != 1 {
		t.Fatalf("tables = %v", e.Tables())
	}
}

func TestEngineScriptAndLoaders(t *testing.T) {
	e := Open(Config{})
	spec := DefaultEmpDept()
	spec.Employees, spec.Departments = 300, 10
	if err := e.LoadEmpDept(spec); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecScript(context.Background(), `
		analyze;
		select count(*) as n from emp;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 300 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}

	e2 := Open(Config{})
	tp := DefaultTPCD()
	tp.Lineitems = 1000
	if err := e2.LoadTPCD(tp); err != nil {
		t.Fatal(err)
	}
	if len(e2.Tables()) != 5 {
		t.Fatalf("tpcd tables = %v", e2.Tables())
	}
}

func TestEngineErrors(t *testing.T) {
	e := setupEmpDept(t)
	if _, err := e.Query(context.Background(), `create table t2 (a int)`); err == nil {
		t.Errorf("Query accepted DDL")
	}
	if _, err := e.Exec(`insert into nosuch values (1)`); err == nil {
		t.Errorf("insert into missing table accepted")
	}
	if _, err := e.Exec(`insert into dept values (1+dno, 2)`); err == nil {
		t.Errorf("non-literal insert accepted")
	}
	if _, err := e.Exec(`select nosuch from emp`); err == nil {
		t.Errorf("bad query accepted")
	}
	if _, err := e.Exec(`analyze nosuch`); err == nil {
		t.Errorf("analyze of missing table accepted")
	}
}

func TestEngineNegativeLiterals(t *testing.T) {
	e := Open(Config{})
	e.MustExec(`create table t (a int, b float)`)
	e.MustExec(`insert into t values (-5, -2.5)`)
	res, err := e.Query(context.Background(), `select a, b from t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != -5 || res.Rows[0][1].(float64) != -2.5 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestOpenDefaults(t *testing.T) {
	e := Open(Config{})
	if e.cfg.Mode != Full {
		t.Fatalf("default mode = %v", e.cfg.Mode)
	}
	e2 := Open(Config{Mode: Traditional})
	if e2.cfg.Mode != Traditional {
		t.Fatalf("pinned mode = %v", e2.cfg.Mode)
	}
}

func TestEngineSystemRJoins(t *testing.T) {
	e := Open(Config{PoolPages: 8, SystemRJoins: true})
	spec := DefaultEmpDept()
	spec.Employees, spec.Departments = 3000, 50
	if err := e.LoadEmpDept(spec); err != nil {
		t.Fatal(err)
	}
	q := `select e.dno, avg(e.sal) from emp e, dept d where e.dno = d.dno group by e.dno`
	res, err := e.Query(context.Background(), q, WithMode(PushDown), WithColdCache())
	if err != nil {
		t.Fatal(err)
	}
	info := res.Plan
	if strings.Contains(info.PlanText, "Join[hash]") {
		t.Fatalf("SystemRJoins plan uses a hash join:\n%s", info.PlanText)
	}
	if res.Len() != 50 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestEngineWithConfigSharesData(t *testing.T) {
	e := setupEmpDept(t)
	e2 := e.WithConfig(Config{Mode: PushDown})
	res, err := e2.Query(context.Background(), `select count(*) from emp`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 200 {
		t.Fatalf("shared data lost: %v", res.Rows[0][0])
	}
}

func TestEngineResultString(t *testing.T) {
	e := setupEmpDept(t)
	res, err := e.Query(context.Background(), `select dno, budget from dept order by dno limit 2`)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.HasPrefix(s, "dno\tbudget\n") || !strings.Contains(s, "0\t100000") {
		t.Fatalf("String = %q", s)
	}
}

func TestEngineIOStatsLifecycle(t *testing.T) {
	e := setupEmpDept(t)
	e.DropCaches()
	before := e.IOStats()
	res, err := e.Query(context.Background(), `select count(*) from emp`)
	if err != nil {
		t.Fatal(err)
	}
	d := e.IOStats().Sub(before)
	if d.Reads == 0 {
		t.Fatalf("cold query did no reads")
	}
	if d != res.IO {
		t.Fatalf("engine IO delta %v, query IO %v", d, res.IO)
	}
}

func TestEngineOrderByFloatAndString(t *testing.T) {
	e := Open(Config{})
	e.MustExec(`create table t (a varchar(10), b float)`)
	e.MustExec(`insert into t values ('b', 2.5), ('a', 1.5), ('c', 0.5)`)
	res, err := e.Query(context.Background(), `select a, b from t order by b desc`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(string) != "b" || res.Rows[2][1].(float64) != 0.5 {
		t.Fatalf("order wrong: %v", res.Rows)
	}
}

func TestEngineHavingPushdownEndToEnd(t *testing.T) {
	e := setupEmpDept(t)
	res, err := e.Query(context.Background(), `
		select dno, count(*) as n from emp
		group by dno
		having dno >= 4 and count(*) > 0
		order by dno`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 || res.Rows[0][0].(int64) != 4 {
		t.Fatalf("result = %v", res.Rows)
	}
}
