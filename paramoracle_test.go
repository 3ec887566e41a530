package aggview_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"aggview"
)

// bagOf renders rows as a sorted list of lines, floats to 9 significant
// digits: plans that join in different orders may sum in different orders.
func bagOf(rows [][]any) string {
	lines := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if f, ok := v.(float64); ok {
				parts[j] = fmt.Sprintf("%.9g", f)
			} else {
				parts[j] = fmt.Sprintf("%T %v", v, v)
			}
		}
		lines[i] = strings.Join(parts, "\t")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestParamPlansMatchOracle: every parameterized statement shape of the
// prepared-statement and warm-exec suites runs, over several argument
// vectors, through its Stmt — a plan-cache hit, which opens the compiled
// program and reads each `?` from the run's vector — and through exec.Naive
// on the same frozen plan under the same vector. The two must agree as bags.
func TestParamPlansMatchOracle(t *testing.T) {
	emp := aggview.SetupEmpDept(t)
	small := aggview.Open(aggview.Config{})
	small.MustExec(`create table t (a int)`)
	small.MustExec(`insert into t values (1), (2), (3)`)
	tpcd := aggview.Open(aggview.Config{PoolPages: 4096})
	if err := tpcd.LoadTPCD(aggview.TPCDSpec{Seed: 1, Lineitems: 1200}); err != nil {
		t.Fatal(err)
	}
	tpcd.MustExec(`create view part_qty (partkey, aqty) as select partkey, avg(qty) from lineitem group by partkey`)
	tpcd.MustExec(`create view order_value (orderkey, value) as select orderkey, sum(price) from lineitem group by orderkey`)

	type shape struct {
		eng  *aggview.Engine
		sql  string
		args [][]any
	}
	shapes := []shape{
		{emp, `select eno, sal from emp where age < ? order by eno`, [][]any{{30}, {18}, {70}}},
		{emp, `select sal from emp where age < ?`, [][]any{{30}, {45}, {0}}},
		{emp, `select dno, sum(sal * ?) as s from emp group by dno having avg(sal) > ? order by dno`,
			[][]any{{2.0, 1500.0}, {2.0, 0.0}, {-1.5, 2600}}},
		{emp, `select eno from emp where age < ? and sal > ?`, [][]any{{30, 1000.0}, {30, 1000}, {60, 3500.0}}},
		{emp, `select count(*) as n from emp where age < ?`, [][]any{{200}, {18}, {40}}},
		{emp, `select count(*) from emp where age < ?`, [][]any{{20}, {35}, {50}}},
		{emp, `select eno, sal from emp where sal > ? order by sal desc limit 5`, [][]any{{1000.0}, {3990.0}, {0}}},
		{small, `select a from t where a >= ? order by a`, [][]any{{2}, {0}, {4}}},
		{small, `select a from t where a > ?`, [][]any{{1}, {3}, {-1}}},
		{small, `select a from t where a < ?`, [][]any{{1}, {3}, {9}}},
	}
	for _, st := range warmExecStatements {
		shapes = append(shapes, shape{tpcd, st.sql, [][]any{{st.arg}, {0}, {25}}})
	}
	ctx := context.Background()
	for _, sh := range shapes {
		stmt, err := sh.eng.Prepare(sh.sql)
		if err != nil {
			t.Fatalf("%s: %v", sh.sql, err)
		}
		for _, args := range sh.args {
			got, err := stmt.QueryContext(ctx, args...)
			if err != nil {
				t.Fatalf("%s %v: %v", sh.sql, args, err)
			}
			if got.Plan.CacheStatus != "hit" {
				t.Fatalf("%s %v: plan cache %s, want hit", sh.sql, args, got.Plan.CacheStatus)
			}
			want, err := aggview.StmtOracle(stmt, args...)
			if err != nil {
				t.Fatalf("%s %v: oracle: %v", sh.sql, args, err)
			}
			if g, w := bagOf(got.Rows), bagOf(want); g != w {
				t.Errorf("%s %v: %d rows, oracle %d:\n%s\nvs\n%s", sh.sql, args, len(got.Rows), len(want), g, w)
			}
		}
	}
}

// TestParamArithmeticPins: a `?` is a slot read at run time, yet arithmetic
// over it has the kind a literal in its place would give — INT when every
// operand is INT, FLOAT otherwise, and always FLOAT for division — and
// expressions without a parameter keep their static result type, so
// MEDIAN(x) + 1 stays FLOAT over an INT column.
func TestParamArithmeticPins(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	e.MustExec(`create table one (x int)`)
	e.MustExec(`insert into one values (5)`)
	e.MustExec(`create table t (x int, f float)`)
	e.MustExec(`insert into t values (1, 1.5), (2, 2.5), (4, 3.5)`)
	e.MustExec(`create table u (x int)`)
	e.MustExec(`insert into u values (1), (2), (4), (8)`)
	pins := []struct {
		sql  string
		arg  any // nil: the statement has no `?`
		want any
	}{
		{`select ? + 1 from one`, 3, int64(4)},
		{`select ? + 1 from one`, 2.5, 3.5},
		{`select ? + 1 from one`, -7, int64(-6)},
		{`select ? * 2 from one`, 3, int64(6)},
		{`select ? * 2 from one`, 2.5, 5.0},
		{`select ? * 2 from one`, -7, int64(-14)},
		{`select ? / 2 from one`, 3, 1.5},
		{`select ? / 2 from one`, 2.5, 1.25},
		{`select ? / 2 from one`, -7, -3.5},
		{`select abs(?) + 1 from one`, -7, int64(8)},
		{`select abs(?) + 1 from one`, 2.5, 3.5},
		{`select (? + 1) * x from one`, 3, int64(20)},
		{`select (? + 1) * x from one`, 2.5, 17.5},
		{`select ? - x from one`, 2.5, -2.5},
		{`select median(x) + 1 from t`, nil, 3.0},
		{`select median(x) + 1 from u`, nil, 4.0},
		{`select median(f) + 1 from t`, nil, 3.5},
		{`select median(x) * 2 from t`, nil, 4.0},
	}
	for _, p := range pins {
		stmt, err := e.Prepare(p.sql)
		if err != nil {
			t.Fatalf("%s: %v", p.sql, err)
		}
		var args []any
		if p.arg != nil {
			args = []any{p.arg}
		}
		res, err := stmt.QueryContext(context.Background(), args...)
		if err != nil {
			t.Fatalf("%s %v: %v", p.sql, args, err)
		}
		if got := res.Rows[0][0]; got != p.want {
			t.Errorf("%s %v = %v (%T), want %v (%T)", p.sql, args, got, got, p.want, p.want)
		}
		oracle, err := aggview.StmtOracle(stmt, args...)
		if err != nil {
			t.Fatalf("%s %v: oracle: %v", p.sql, args, err)
		}
		if got := oracle[0][0]; got != p.want {
			t.Errorf("%s %v: oracle %v (%T), want %v (%T)", p.sql, args, got, got, p.want, p.want)
		}
	}
}
