package aggview

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestPlanCacheKeyKeepsLiterals: two texts that differ only in the case of a
// string literal are two statements — two entries, two answers — while the
// case of a keyword or an identifier is not.
func TestPlanCacheKeyKeepsLiterals(t *testing.T) {
	e := Open(Config{})
	e.MustExec(`create table s (r text, n int)`)
	e.MustExec(`insert into s values ('R1', 1), ('r1', 20), ('r1', 300)`)
	ctx := context.Background()
	sum := func(q string) (int64, string) {
		t.Helper()
		res, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64), res.Plan.CacheStatus
	}
	if got, st := sum(`select sum(n) from s where r = 'R1'`); got != 1 || st != "miss" {
		t.Fatalf("'R1': sum %v, status %q; want 1, miss", got, st)
	}
	if got, st := sum(`select sum(n) from s where r = 'r1'`); got != 320 || st != "miss" {
		t.Fatalf("'r1': sum %v, status %q; want 320, miss (served the 'R1' plan?)", got, st)
	}
	if got, st := sum(`SELECT Sum(N) FROM S WHERE R = 'R1'`); got != 1 || st != "hit" {
		t.Fatalf("upper-case rendering of 'R1': sum %v, status %q; want 1, hit", got, st)
	}
	if e.PlanCacheLen() != 2 {
		t.Fatalf("PlanCacheLen = %d, want 2", e.PlanCacheLen())
	}
}

// TestQueryTextErrorsUnchanged pins what Query and Prepare report for text
// that is no SELECT. The cache key is now taken before the parse — and
// stands in for it on a hit — so a lexical error surfaces from the key
// function and the others from the compile a miss leads to; the messages
// are the ones the parse-first pipeline gave, and nothing is cached.
func TestQueryTextErrorsUnchanged(t *testing.T) {
	e := Open(Config{})
	e.MustExec(`create table t (a int)`)
	for _, c := range []struct{ src, want string }{
		{`insert into t values (1)`, `aggview: this entry point requires a SELECT statement`},
		{`create table u (a int)`, `aggview: this entry point requires a SELECT statement`},
		{`select from`, `sql: offset 7: unexpected token "FROM" in expression`},
		{`select a from t where`, `sql: offset 21: unexpected token "" in expression`},
		{`select a from t; garbage`, `sql: offset 17: unexpected trailing input "garbage"`},
		{`select @ from t`, `sql: unexpected character '@' at offset 7`},
		{`select 'open from t`, `sql: unterminated string literal at offset 7`},
		{`select a from nosuch`, `bind: relation "nosuch" not found`},
	} {
		for i := 0; i < 2; i++ { // the second call must not find anything cached
			if _, err := e.Query(context.Background(), c.src); err == nil || err.Error() != c.want {
				t.Errorf("Query(%q) call %d: error %v, want %s", c.src, i+1, err, c.want)
			}
		}
		if _, err := e.Prepare(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Prepare(%q): error %v, want %s", c.src, err, c.want)
		}
	}
	if e.PlanCacheLen() != 0 {
		t.Errorf("PlanCacheLen = %d after failed statements only, want 0", e.PlanCacheLen())
	}
}

// TestPlanCacheAdHocInvalidation: an ad-hoc hit is still checked against the
// catalog version — after an INSERT or an ANALYZE the cached plan is
// dropped ("invalidated"), the text is parsed and compiled again, and the
// new plan sees the new state.
func TestPlanCacheAdHocInvalidation(t *testing.T) {
	e := setupEmpDept(t)
	ctx := context.Background()
	const q = `select count(*) as n from emp where age < 200`
	run := func() (int64, string) {
		t.Helper()
		res, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64), res.Plan.CacheStatus
	}
	n0, st := run()
	if st != "miss" {
		t.Fatalf("first run status %q, want miss", st)
	}
	if _, st = run(); st != "hit" {
		t.Fatalf("second run status %q, want hit", st)
	}
	e.MustExec(`insert into emp values (9999, 0, 1234.0, 30)`)
	n1, st := run()
	if st != "invalidated" || n1 != n0+1 {
		t.Fatalf("after INSERT: status %q, count %d; want invalidated, %d", st, n1, n0+1)
	}
	if _, st = run(); st != "hit" {
		t.Fatalf("recompiled plan not re-cached: status %q", st)
	}
	e.MustExec(`analyze emp`)
	if n, st := run(); st != "invalidated" || n != n1 {
		t.Fatalf("after ANALYZE: status %q, count %d; want invalidated, %d", st, n, n1)
	}
	if _, st = run(); st != "hit" {
		t.Fatalf("cache did not settle: status %q", st)
	}
}

// TestPlanCacheAdHocOptionsSeparateEntries: the key is the text plus what
// the options decide about the plan, so one text under WithMode and
// WithoutViewRewrite holds one entry per setting and never crosses them.
func TestPlanCacheAdHocOptionsSeparateEntries(t *testing.T) {
	e := Open(Config{})
	e.MustExec(`create table sales (region text, amount float)`)
	var vals []string
	for i := 0; i < 3000; i++ { // pages enough that the view is the cheaper plan
		vals = append(vals, fmt.Sprintf("('r%d', %d.5)", i%2, i%10))
	}
	e.MustExec(`insert into sales values ` + strings.Join(vals, ", "))
	e.MustExec(`analyze`)
	e.MustExec(`create materialized view sales_rollup as
		select region, sum(amount) as total, count(*) as n from sales group by region`)
	ctx := context.Background()
	const q = `select region, sum(amount) as total from sales group by region`
	for i, c := range []struct {
		opts     []QueryOption
		mode     OptimizerMode
		viaView  bool
		wantLen  int
		wantStat string
	}{
		{nil, Full, true, 1, "miss"},
		{nil, Full, true, 1, "hit"},
		{[]QueryOption{WithoutViewRewrite()}, Full, false, 2, "miss"},
		{[]QueryOption{WithMode(Traditional)}, Traditional, true, 3, "miss"},
		{[]QueryOption{WithMode(Traditional), WithoutViewRewrite()}, Traditional, false, 4, "miss"},
		{[]QueryOption{WithoutViewRewrite()}, Full, false, 4, "hit"},
		{[]QueryOption{WithMode(Traditional)}, Traditional, true, 4, "hit"},
		{[]QueryOption{WithMode(Full)}, Full, true, 4, "hit"}, // the engine's default mode, spelled out
	} {
		res, err := e.Query(ctx, q, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.CacheStatus != c.wantStat || e.PlanCacheLen() != c.wantLen ||
			res.Plan.Mode != c.mode || (res.Plan.ViewRewrite != "") != c.viaView || res.Len() != 2 {
			t.Fatalf("step %d: status %q, %d entries, mode %v, view rewrite %q, %d rows; want %q, %d, %v, via view %v, 2",
				i, res.Plan.CacheStatus, e.PlanCacheLen(), res.Plan.Mode, res.Plan.ViewRewrite, res.Len(),
				c.wantStat, c.wantLen, c.mode, c.viaView)
		}
	}
}

// TestConcurrentCachedPlanLabels: operator labels are rendered into the
// plan's compiled program when it is compiled and only read afterwards.
// Many goroutines run the one cached program and read every label (the
// race detector watches the shared program), and each sees exactly the
// labels of the compiling run.
func TestConcurrentCachedPlanLabels(t *testing.T) {
	e := setupEmpDept(t)
	ctx := context.Background()
	const q = `select e.dno, avg(e.sal), count(*) from emp e, dept d
		where e.dno = d.dno and d.budget > 150000 group by e.dno having count(*) > 2`
	first, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan.CacheStatus != "miss" || len(first.Ops) < 3 {
		t.Fatalf("compiling run: status %q, %d operators", first.Plan.CacheStatus, len(first.Ops))
	}
	want := make([]string, len(first.Ops))
	for i, op := range first.Ops {
		want[i] = op.Label
	}
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := e.Query(ctx, q)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Plan.CacheStatus != "hit" || len(res.Ops) != len(want) || res.Len() != first.Len() {
					t.Errorf("status %q, %d operators, %d rows; want hit, %d, %d",
						res.Plan.CacheStatus, len(res.Ops), res.Len(), len(want), first.Len())
					return
				}
				for i, op := range res.Ops {
					if op.Label != want[i] {
						t.Errorf("operator %d label %q, want %q", i, op.Label, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
