package aggview_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"aggview"
)

// crossProductEngine holds r and s, which no conjunct of the view below
// joins, and t, which joins each of them.
func crossProductEngine(t *testing.T) *aggview.Engine {
	t.Helper()
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	eng.MustExec(`create table r (ra int, x int)`)
	eng.MustExec(`create table s (sb int, y int)`)
	eng.MustExec(`create table t (k int, a int, b int)`)
	insert := func(table string, n int, row func(i int) string) {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = row(i)
		}
		eng.MustExec("insert into " + table + " values " + strings.Join(vals, ", "))
	}
	insert("r", 12, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i%5) })
	insert("s", 9, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i%4) })
	insert("t", 30, func(i int) string { return fmt.Sprintf("(%d, %d, %d)", i, i%6, i%5) })
	eng.MustExec(`analyze`)
	// The view's body is the cross product r × s: its relations connect
	// only through the outer block's t.
	eng.MustExec(`create view v (x, y, c) as select r.x, s.y, count(*) from r, s group by r.x, s.y`)
	return eng
}

// TestCrossProductShapes runs queries whose conjuncts leave relations
// unconnected in every optimizer mode and checks each answer against a
// Traditional, batch-size-1 engine without view rewrite. The search
// extends a plan only by a relation a conjunct links to it, except where
// the conjunct graph leaves a cross product as the only way on: a view
// whose body is a cross product must still get a plan for V′ alone (the
// maximal push-down, W = {}) and for V′ joined with t, and a query whose
// relations fall into two components must still get a complete plan.
func TestCrossProductShapes(t *testing.T) {
	eng := crossProductEngine(t)
	ref := eng.WithConfig(aggview.Config{Mode: aggview.Traditional, BatchSize: 1})
	ctx := context.Background()
	queries := []struct {
		name, sql string
		pullUps   int // pull-up candidates Full mode costs; 0 = no view
	}{
		{"view-cross-product", `select t.k, v.c from t, v where t.a = v.x and t.b = v.y`, 2},
		{"view-cross-product-grouped", `select t.a, sum(v.c) as n from t, v
			where t.a = v.x and t.b = v.y and t.k < 20 group by t.a`, 2},
		{"cross-product", `select r.x, s.y from r, s where r.x < 2`, 0},
		{"component-apart", `select t.k, s.y from r, s, t where r.ra = t.k and s.y < 2`, 0},
		{"component-apart-grouped", `select r.x, count(*) as n from r, s, t
			where r.ra = t.k and s.sb < 3 group by r.x`, 0},
	}
	for _, q := range queries {
		want, err := ref.Query(ctx, q.sql, aggview.WithoutViewRewrite())
		if err != nil {
			t.Fatalf("%s: reference: %v", q.name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: the reference answer is empty", q.name)
		}
		for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full} {
			got, err := eng.Query(ctx, q.sql, aggview.WithMode(mode))
			if err != nil {
				t.Fatalf("%s %v: %v", q.name, mode, err)
			}
			if g, w := canonicalRows(got), canonicalRows(want); g != w {
				t.Errorf("%s %v: got\n%s\nwant\n%s\nplan:\n%s", q.name, mode, g, w, got.Plan.PlanText)
			}
			if mode == aggview.Full && got.Plan.Search.PullUpCandidates != q.pullUps {
				t.Errorf("%s: Full mode costed %d pull-up candidates, want %d",
					q.name, got.Plan.Search.PullUpCandidates, q.pullUps)
			}
		}
	}
}
