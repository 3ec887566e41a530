package aggview_test

import (
	"fmt"
	"strings"
	"testing"

	"aggview"
)

// Engine-level outer-join tests: golden results over a fixed fixture for
// every join type and engine configuration, the COUNT-bug acceptance
// regression (with and without a materialized view tempting the rewriter),
// NULL placement under ORDER BY, and the legality rejections for outer
// joins in contexts the optimizer cannot handle.

// loadOuterFixture: emp(1..5), dept(10,20,30). emp 3 has a NULL dno, emp 4
// a dangling dno (99); dept 30 has no employees. Every padding case in one
// small hand-checkable dataset.
func loadOuterFixture(t *testing.T, e *aggview.Engine) {
	t.Helper()
	e.MustExec(`create table emp (eno int primary key, dno int, sal float)`)
	e.MustExec(`create table dept (dno int primary key, budget float)`)
	e.MustExec(`insert into emp values (1, 10, 100), (2, 20, 200), (3, null, 300), (4, 99, 400), (5, 10, 500)`)
	e.MustExec(`insert into dept values (10, 1000), (20, 2000), (30, 3000)`)
	e.MustExec(`analyze`)
}

// outerConfigs are the engine shapes every golden answer must survive:
// vectorized and row-at-a-time, hash joins allowed and System-R only
// (block-NL padding path), and a pool small enough to exercise spills.
func outerConfigs() map[string]aggview.Config {
	return map[string]aggview.Config{
		"default":    {PoolPages: 32},
		"batch1":     {PoolPages: 32, BatchSize: 1},
		"systemr":    {PoolPages: 32, SystemRJoins: true},
		"small-pool": {PoolPages: 4, BatchSize: 8},
	}
}

func TestOuterJoinGolden(t *testing.T) {
	golden := []struct {
		q    string
		want []string
	}{
		{
			`select e.eno as eno, d.dno as ddno from emp e left join dept d on e.dno = d.dno order by eno`,
			[]string{"1|10", "2|20", "3|<nil>", "4|<nil>", "5|10"},
		},
		{
			`select e.eno as eno, d.dno as ddno from emp e right join dept d on e.dno = d.dno`,
			[]string{"1|10", "2|20", "5|10", "<nil>|30"},
		},
		{
			`select e.eno as eno, d.dno as ddno from emp e full join dept d on e.dno = d.dno`,
			[]string{"1|10", "2|20", "3|<nil>", "4|<nil>", "5|10", "<nil>|30"},
		},
		{
			// ON with a residual conjunct: emp 5 matches dept 10 by key but
			// fails sal < budget/... no — keep it simple: sal >= 500 fails
			// for emp 5, so emp 5 must come out padded, not dropped.
			`select e.eno as eno, d.dno as ddno from emp e left join dept d on e.dno = d.dno and e.sal < 400.0`,
			[]string{"1|10", "2|20", "3|<nil>", "4|<nil>", "5|<nil>"},
		},
		{
			// WHERE over the padded side filters after padding: padded rows
			// have NULL budget → UNKNOWN → dropped, like SQL says.
			`select e.eno as eno from emp e left join dept d on e.dno = d.dno where d.budget < 1500.0`,
			[]string{"1", "5"},
		},
		{
			// Grouped aggregates over padded rows: the COUNT-bug pair plus a
			// NULL-skipping SUM, grouped above the whole chain.
			`select d.dno as dno, count(*) as star, count(e.eno) as ce, sum(e.sal) as ss
			 from dept d left join emp e on e.dno = d.dno group by d.dno order by dno`,
			[]string{"10|2|2|600", "20|1|1|200", "30|1|0|<nil>"},
		},
		{
			// An inner join before a RIGHT join runs before the padding:
			// dept 30 matches no (emp, dept) pair and comes out padded.
			`select d2.dno as dno, e.eno as eno from emp e join dept d on e.dno = d.dno
			 right join dept d2 on d2.dno = e.dno`,
			[]string{"10|1", "10|5", "20|2", "30|<nil>"},
		},
		{
			// FULL with grouping: the NULL group key collects emp rows that
			// matched no dept (NULL and dangling dnos).
			`select d.dno as dno, count(*) as star, count(e.eno) as ce
			 from emp e full join dept d on e.dno = d.dno group by d.dno order by dno`,
			[]string{"<nil>|2|2", "10|2|2", "20|1|1", "30|1|0"},
		},
	}
	for cfgName, cfg := range outerConfigs() {
		e := aggview.Open(cfg)
		loadOuterFixture(t, e)
		for i, g := range golden {
			for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full} {
				res, err := e.Query(ctx(), g.q, aggview.WithMode(mode))
				if err != nil {
					t.Fatalf("%s/%v golden %d: %v", cfgName, mode, i, err)
				}
				got := sortedRows(res)
				want := append([]string(nil), g.want...)
				if !equalRows(got, sortedStrings(want)) {
					t.Fatalf("%s/%v golden %d:\n%s\ngot:  %v\nwant: %v", cfgName, mode, i, g.q, got, want)
				}
			}
		}
	}
}

func sortedStrings(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestOuterJoinCountBug is the acceptance regression: COUNT(*) vs
// COUNT(col) over a LEFT JOIN with unmatched preserved rows, in every
// optimizer mode, with and without a materialized view covering the
// preserved table's group-by. The view must never serve the outer query —
// its stored groups know nothing about padded rows.
func TestOuterJoinCountBug(t *testing.T) {
	e := aggview.Open(aggview.Config{PoolPages: 32})
	loadOuterFixture(t, e)
	e.MustExec(`create materialized view emp_by_dno as
		select dno, count(*) as n, sum(sal) as total from emp group by dno`)

	q := `select d.dno as dno, count(*) as star, count(e.eno) as ce
	      from dept d left join emp e on e.dno = d.dno group by d.dno order by dno`
	want := []string{"10|2|2", "20|1|1", "30|1|0"}

	for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full} {
		for _, rewriteOff := range []bool{false, true} {
			opts := []aggview.QueryOption{aggview.WithMode(mode)}
			if rewriteOff {
				opts = append(opts, aggview.WithoutViewRewrite())
			}
			res, err := e.Query(ctx(), q, opts...)
			if err != nil {
				t.Fatalf("%v rewriteOff=%v: %v", mode, rewriteOff, err)
			}
			if res.Plan.ViewRewrite != "" {
				t.Fatalf("%v: view rewrite fired on an outer-join query (%q)\n%s",
					mode, res.Plan.ViewRewrite, res.Plan.PlanText)
			}
			if got := sortedRows(res); !equalRows(got, sortedStrings(want)) {
				t.Fatalf("%v rewriteOff=%v COUNT bug:\ngot:  %v\nwant: %v", mode, rewriteOff, got, want)
			}
		}
	}

	// The inner-join shape the view does cover must still rewrite — the
	// outer gate must not over-reject. The rewrite is cost-based, so this
	// control needs a table large enough for the view to win.
	big := aggview.Open(aggview.Config{PoolPages: 16})
	big.MustExec(`create table emp (eno int primary key, dno int, sal float)`)
	var b strings.Builder
	b.WriteString(`insert into emp values `)
	for i := 0; i < 8000; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d.5)", i, i%20, i%100)
	}
	big.MustExec(b.String())
	big.MustExec(`analyze`)
	big.MustExec(`create materialized view emp_by_dno as
		select dno, count(*) as n, sum(sal) as total from emp group by dno`)
	inner := `select dno, count(*) as n from emp group by dno`
	res, err := big.Query(ctx(), inner)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.ViewRewrite != "emp_by_dno" {
		t.Fatalf("inner query lost the rewrite: %q\n%s", res.Plan.ViewRewrite, res.Plan.PlanText)
	}
	base, err := big.Query(ctx(), inner, aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(sortedRows(res), sortedRows(base)) {
		t.Fatal("view-backed inner query diverged from base")
	}
}

// TestOuterJoinTextOrder: an inner join commutes past a LEFT join whose ON
// does not reference it, so where the text writes it must not change the
// plan's cost. The two texts of one TPC-D query, inner join after and
// before the LEFT step, return the same rows at the same estimated cost in
// every mode, and read as many pages from a cold pool at every pool size.
func TestOuterJoinTextOrder(t *testing.T) {
	texts := []string{
		`select o.odate, sum(l.qty) as q, count(p.partkey) as n
		 from lineitem l left join part p on p.partkey = l.partkey and p.brand < 5
		      join orders o on o.orderkey = l.orderkey
		 where o.custkey < 20 group by o.odate`,
		`select o.odate, sum(l.qty) as q, count(p.partkey) as n
		 from lineitem l join orders o on o.orderkey = l.orderkey
		      left join part p on p.partkey = l.partkey and p.brand < 5
		 where o.custkey < 20 group by o.odate`,
	}
	spec := aggview.DefaultTPCD()
	spec.Lineitems = 60000
	for _, pool := range []int{16, 64, 256} {
		e := aggview.Open(aggview.Config{PoolPages: pool})
		if err := e.LoadTPCD(spec); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full} {
			var rows [2][]string
			var est [2]float64
			var io [2]aggview.IOStats
			for i, q := range texts {
				e.DropCaches()
				before := e.IOStats()
				res, err := e.Query(ctx(), q, aggview.WithMode(mode))
				if err != nil {
					t.Fatalf("pool=%d %v text %d: %v", pool, mode, i, err)
				}
				rows[i], est[i], io[i] = sortedRows(res), res.Plan.EstimatedCost, e.IOStats().Sub(before)
			}
			if !equalRows(rows[0], rows[1]) || len(rows[0]) == 0 {
				t.Fatalf("pool=%d %v: the texts return %d and %d rows, or different ones", pool, mode, len(rows[0]), len(rows[1]))
			}
			if est[0] != est[1] {
				t.Errorf("pool=%d %v: estimated %v for the LEFT step first, %v for the inner join first", pool, mode, est[0], est[1])
			}
			if io[0].Reads+io[0].Writes != io[1].Reads+io[1].Writes {
				t.Errorf("pool=%d %v: cold pages %+v for the LEFT step first, %+v for the inner join first", pool, mode, io[0], io[1])
			}
		}
	}
}

// TestOuterJoinOrderByNulls pins NULL placement in ORDER BY over padded
// outputs: NULL sorts before every value ascending, after every value
// descending, identically across batch sizes and the spill path.
func TestOuterJoinOrderByNulls(t *testing.T) {
	for cfgName, cfg := range outerConfigs() {
		e := aggview.Open(cfg)
		loadOuterFixture(t, e)
		asc, err := e.Query(ctx(), `select e.eno as eno, d.dno as ddno
			from emp e left join dept d on e.dno = d.dno order by ddno, eno`)
		if err != nil {
			t.Fatalf("%s: %v", cfgName, err)
		}
		wantAsc := [][]any{{int64(3), nil}, {int64(4), nil}, {int64(1), int64(10)}, {int64(5), int64(10)}, {int64(2), int64(20)}}
		assertRowsEqual(t, cfgName+"/asc", asc.Rows, wantAsc)

		desc, err := e.Query(ctx(), `select e.eno as eno, d.dno as ddno
			from emp e left join dept d on e.dno = d.dno order by ddno desc, eno`)
		if err != nil {
			t.Fatalf("%s: %v", cfgName, err)
		}
		wantDesc := [][]any{{int64(2), int64(20)}, {int64(1), int64(10)}, {int64(5), int64(10)}, {int64(3), nil}, {int64(4), nil}}
		assertRowsEqual(t, cfgName+"/desc", desc.Rows, wantDesc)
	}
}

func assertRowsEqual(t *testing.T, name string, got, want [][]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d: %v", name, len(got), len(want), got)
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("%s row %d: got %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestOuterJoinRejections: contexts where outer joins are illegal fail at
// bind time with clear errors instead of planning something wrong.
func TestOuterJoinRejections(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	loadOuterFixture(t, e)

	cases := []struct{ sql, wantSub string }{
		// Materialized-view definitions: stored groups cannot track padding.
		{`create materialized view bad as
			select d.dno, count(*) as n from dept d left join emp e on e.dno = d.dno group by d.dno`,
			"outer join"},
		// Outer joins inside a derived table (non-top block).
		{`select x.eno as eno from (select e.eno as eno from emp e left join dept d on e.dno = d.dno) x`,
			"top-level"},
		// Subquery predicates cannot unnest into an outer-join FROM.
		{`select e.eno as eno from emp e left join dept d on e.dno = d.dno
			where e.sal > (select avg(e2.sal) from emp e2)`,
			"not supported"},
		// Subqueries inside ON conditions.
		{`select e.eno as eno from emp e left join dept d on e.dno = (select max(d2.dno) from dept d2)`,
			"not supported"},
	}
	for _, c := range cases {
		_, err := e.Exec(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("%s\n  err = %v, want substring %q", c.sql, err, c.wantSub)
		}
	}
}
