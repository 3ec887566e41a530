package aggview_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"aggview"
)

// NULL-heavy differential fuzz: the emp/dept generator's NullFraction knob
// riddles emp.dno, emp.sal, emp.age and dept.budget with NULLs, and every
// workload query — inner joins, grouped aggregates, subquery flattening,
// and the outer-join chains — must return identical rows across engine
// shapes: vectorized vs row-at-a-time, hash joins vs System-R (block-NL
// padding), spill-heavy pools, and with a materialized view tempting the
// rewriter vs the rewrite disabled.

var nullDiffQueries = []string{
	// Inner-join and single-table shapes over NULL-bearing columns: NULL
	// join keys drop out (UNKNOWN filters), NULL group keys form their own
	// group, NULL agg args are skipped.
	`select e.dno as dno, avg(e.sal) as a, count(*) as star, count(e.sal) as cs
	 from emp e group by e.dno`,
	`select e.eno as eno, e.sal as sal from emp e where e.age < 30 order by sal desc, eno`,
	`select count(*) as star, count(e.sal) as cs, sum(e.sal) as ss from emp e, dept d
	 where e.dno = d.dno and d.budget > 50000.0`,
	`select e.dno as dno, count(*) as c from emp e group by e.dno having count(*) > 5
	 order by c desc, dno`,
	// Outer-join shapes: padding over NULL/dangling keys, the COUNT-bug
	// pair, WHERE above vs below the padding join, FULL double padding.
	`select e.eno as eno, d.dno as ddno from emp e left join dept d on e.dno = d.dno
	 order by ddno, eno`,
	`select d.dno as dno, count(*) as star, count(e.eno) as ce, sum(e.sal) as ss
	 from dept d left join emp e on e.dno = d.dno group by d.dno`,
	`select e.eno as eno, d.budget as b from emp e right join dept d on e.dno = d.dno`,
	`select d.dno as dno, count(*) as star, count(e.eno) as ce
	 from emp e full join dept d on e.dno = d.dno group by d.dno`,
	`select e.eno as eno from emp e left join dept d on e.dno = d.dno
	 where d.budget > 500000.0`,
	`select e.dno as dno, avg(e.sal) as a from emp e left join dept d
	 on e.dno = d.dno and d.budget > 500000.0 group by e.dno`,
}

// nullCanonicalRows is canonicalRows with floats rounded to 9 significant
// digits: SUM over arbitrary doubles is order-dependent in the last ulp,
// and spill partitioning legitimately reorders the summation. NULL vs
// value and every integer/string difference still compares exactly. An
// ordered result (every ORDER BY here is total) keeps its row order; any
// other is sorted.
func nullCanonicalRows(res *aggview.Result, ordered bool) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if f, ok := v.(float64); ok {
				parts[j] = fmt.Sprintf("%.9g", f)
			} else {
				parts[j] = fmt.Sprintf("%v", v)
			}
		}
		lines[i] = strings.Join(parts, "\t")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(res.Columns, "\t") + "\n" + strings.Join(lines, "\n")
}

func nullDiffSpec() aggview.EmpDeptSpec {
	spec := aggview.DefaultEmpDept()
	spec.Employees = 1500
	spec.Departments = 30
	spec.NullFraction = 0.25
	return spec
}

// TestNullHeavyDifferential fans the NULL-heavy workload across engine
// shapes and requires byte-identical canonical rows everywhere, in output
// order for the ORDER BY queries (DESC keys and NULL placement included). The
// reference engine is row-at-a-time (BatchSize 1); a materialized view over
// emp's group-by is installed on every engine so the rewriter is live, and
// each query additionally runs with the rewrite disabled.
func TestNullHeavyDifferential(t *testing.T) {
	const matview = `create materialized view emp_rollup as
		select dno, count(*) as n, sum(sal) as total, avg(age) as aage from emp group by dno`

	open := func(cfg aggview.Config) *aggview.Engine {
		e := aggview.Open(cfg)
		if err := e.LoadEmpDept(nullDiffSpec()); err != nil {
			t.Fatal(err)
		}
		e.MustExec(matview)
		return e
	}
	ref := open(aggview.Config{PoolPages: 32, BatchSize: 1})
	variants := map[string]*aggview.Engine{
		"vectorized": open(aggview.Config{PoolPages: 32}),
		"systemr":    open(aggview.Config{PoolPages: 32, SystemRJoins: true}),
		"small-pool": open(aggview.Config{PoolPages: 4, BatchSize: 16}),
	}

	modes := []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full}
	var wg sync.WaitGroup
	for qi, q := range nullDiffQueries {
		wg.Add(1)
		go func(qi int, q string) {
			defer wg.Done()
			for _, mode := range modes {
				want, err := ref.Query(ctx(), q, aggview.WithMode(mode))
				if err != nil {
					t.Errorf("q%d %v reference: %v", qi, mode, err)
					return
				}
				ordered := strings.Contains(q, "order by")
				wantRows := nullCanonicalRows(want, ordered)
				for name, e := range variants {
					for _, rewriteOff := range []bool{false, true} {
						opts := []aggview.QueryOption{aggview.WithMode(mode)}
						if rewriteOff {
							opts = append(opts, aggview.WithoutViewRewrite())
						}
						got, err := e.Query(ctx(), q, opts...)
						if err != nil {
							t.Errorf("q%d %v %s rewriteOff=%v: %v", qi, mode, name, rewriteOff, err)
							return
						}
						if g := nullCanonicalRows(got, ordered); g != wantRows {
							t.Errorf("q%d %v %s rewriteOff=%v: rows diverge\ngot:\n%s\nwant:\n%s",
								qi, mode, name, rewriteOff, g, wantRows)
							return
						}
					}
				}
			}
		}(qi, q)
	}
	wg.Wait()
}

// TestKeyEqualityDifferential holds GROUP BY and equi-joins to the equality
// WHERE uses, on the two spellings where they used to part: INTs above 2^53,
// which a float64 cannot tell apart (distinct keys merged into one group and
// joined each other), and FLOAT 0.0 / -0.0, which compare equal (and landed
// in two groups). Every engine shape must give the one right answer.
func TestKeyEqualityDifferential(t *testing.T) {
	open := func(cfg aggview.Config) *aggview.Engine {
		e := aggview.Open(cfg)
		e.MustExec(`create table big (k int, v int)`)
		e.MustExec(`create table one (k int)`)
		e.MustExec(`create table zeros (x float, v int)`)
		e.MustExec(`insert into big values (9007199254740992, 1), (9007199254740993, 2), (9007199254740993, 3)`)
		e.MustExec(`insert into one values (9007199254740992)`)
		e.MustExec(`insert into zeros values (0.0, 1), (-0.0, 2), (1.5, 3)`)
		return e
	}
	engines := map[string]*aggview.Engine{
		"row-at-a-time": open(aggview.Config{PoolPages: 32, BatchSize: 1}),
		"vectorized":    open(aggview.Config{PoolPages: 32}),
		"systemr":       open(aggview.Config{PoolPages: 32, SystemRJoins: true}),
		"small-pool":    open(aggview.Config{PoolPages: 4, BatchSize: 16}),
	}
	for _, tc := range []struct{ q, want string }{
		{`select k, count(*) as n from big group by k`, "k\tn\n9007199254740992\t1\n9007199254740993\t2"},
		{`select b.v as v from big b where b.k = 9007199254740992`, "v\n1"},
		{`select b.v as v from big b, one o where b.k = o.k`, "v\n1"},
		{`select count(*) as n from zeros group by x`, "n\n1\n2"},
		{`select a.v as v, b.v as w from zeros a, zeros b where a.x = b.x`, "v\tw\n1\t1\n1\t2\n2\t1\n2\t2\n3\t3"},
	} {
		for name, e := range engines {
			for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.Full} {
				got, err := e.Query(ctx(), tc.q, aggview.WithMode(mode))
				if err != nil {
					t.Errorf("%s %v: %s: %v", name, mode, tc.q, err)
					continue
				}
				if g := nullCanonicalRows(got, false); g != tc.want {
					t.Errorf("%s %v: %s\ngot:\n%s\nwant:\n%s", name, mode, tc.q, g, tc.want)
				}
			}
		}
	}
}
