package aggview_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/cost"
)

// sortOp returns the metrics of the result's Sort operator.
func sortOp(t *testing.T, res *aggview.Result) aggview.OpMetrics {
	t.Helper()
	for _, op := range res.Ops {
		if strings.HasPrefix(op.Label, "Sort by") {
			return op
		}
	}
	t.Fatalf("no Sort among the executed operators %v", res.Ops)
	return aggview.OpMetrics{}
}

// TestOrderByIsThePlanSort: ORDER BY is a Sort on top of the chosen plan.
// EXPLAIN shows it as the root with its DESC key, the estimated cost adds
// the model's sort cost for the plan's result, EXPLAIN ANALYZE gives it its
// own spill IO, and that IO counts against MaxIOPages.
func TestOrderByIsThePlanSort(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	bg := context.Background()
	const unordered = `select l.orderkey, l.partkey, l.qty, l.price from lineitem l`

	info, err := eng.Explain(bg, orderBySpill)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.PlanText, "Sort by qty DESC, price\n") {
		t.Errorf("EXPLAIN root is not the ORDER BY Sort:\n%s", info.PlanText)
	}

	eng.DropCaches()
	a, err := eng.ExplainAnalyze(bg, orderBySpill)
	if err != nil {
		t.Fatal(err)
	}
	below := a.Root.Children[0]
	want := below.EstCost + cost.NewModel(8, 0).SortCost(below.EstPages)
	if want == below.EstCost {
		t.Fatalf("the result (%g pages) fits the pool; the sort would cost nothing", below.EstPages)
	}
	if a.Plan.EstimatedCost != want || a.Root.EstCost != want {
		t.Errorf("estimated cost %g (root %g), want the plan below's %g plus its sort, %g",
			a.Plan.EstimatedCost, a.Root.EstCost, below.EstCost, want)
	}
	if s := a.Root.Actual; s == nil || s.SpillWrites == 0 || s.SpillReads == 0 {
		t.Errorf("Sort ran without its own spill IO: %+v", a.Root.Actual)
	}

	// The scan alone fits the budget; the sort's runs do not.
	eng.DropCaches()
	scan, err := eng.Query(bg, unordered)
	if err != nil {
		t.Fatal(err)
	}
	limit := aggview.WithLimits(aggview.Limits{MaxIOPages: scan.IO.Reads + 1})
	eng.DropCaches()
	if _, err := eng.Query(bg, unordered, limit); err != nil {
		t.Errorf("without ORDER BY under MaxIOPages %d: %v", scan.IO.Reads+1, err)
	}
	eng.DropCaches()
	if _, err := eng.Query(bg, orderBySpill, limit); !errors.Is(err, aggview.ErrIOBudget) {
		t.Errorf("ORDER BY under MaxIOPages %d: err = %v, want wrapped ErrIOBudget", scan.IO.Reads+1, err)
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("leaked spill files %v", leaks)
	}
}

// TestOrderByStableAcrossShapes: a tie-heavy ORDER BY returns the same rows
// in the same order whether its sort spills (PoolPages 4) or not (128), at
// batch size 1 and the default — the order a stable sort of the scan gives.
func TestOrderByStableAcrossShapes(t *testing.T) {
	const q = `select l.orderkey, l.qty from lineitem l order by qty desc`
	var want string
	for _, pool := range []int{4, 128} {
		for _, batch := range []int{1, 0} {
			eng := newWarehouse(t, aggview.Config{PoolPages: pool, BatchSize: batch})
			if want == "" {
				scan, err := eng.Query(context.Background(), `select l.orderkey, l.qty from lineitem l`)
				if err != nil {
					t.Fatal(err)
				}
				rows := slices.Clone(scan.Rows)
				slices.SortStableFunc(rows, func(a, b []any) int { return cmp.Compare(b[1].(float64), a[1].(float64)) })
				want = fmt.Sprint(rows)
			}
			res, err := eng.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if spilled := sortOp(t, res).SpillWrites > 0; spilled != (pool == 4) {
				t.Errorf("pool %d batch %d: sort spilled = %v", pool, batch, spilled)
			}
			if got := fmt.Sprint(res.Rows); got != want {
				t.Errorf("pool %d batch %d: rows differ from a stable sort of the scan", pool, batch)
			}
		}
	}
}

// TestOrderByDuplicateOutputNames: output columns may share a name — two
// sum(...) items, two unnamed expressions, the same column of two tables, a
// star over both — and ORDER BY still sorts by the key's position: the rows
// are a stable sort of the unordered query's rows by those positions, and
// the columns keep their display names.
func TestOrderByDuplicateOutputNames(t *testing.T) {
	eng := aggview.SetupEmpDept(t)
	bg := context.Background()
	num := func(v any) float64 {
		if i, ok := v.(int64); ok {
			return float64(i)
		}
		return v.(float64)
	}
	for _, tc := range []struct {
		sel, orderBy string
		cols         []int
		desc         []bool
		names        string
	}{
		{`select sum(e.sal), sum(e.age) from emp e group by e.dno`, `order by 2`,
			[]int{1}, []bool{false}, "[sum sum_]"},
		{`select e.sal*2, e.sal*3 from emp e`, `order by 2 desc`,
			[]int{1}, []bool{true}, "[col1 col1_]"},
		{`select e.dno, d.dno from emp e, dept d where d.dno < 3`, `order by 2, 1 desc`,
			[]int{1, 0}, []bool{false, true}, "[dno dno_]"},
		{`select * from emp e, dept d where e.eno < 10`, `order by dno desc, budget`,
			[]int{1, 5}, []bool{true, false}, "[eno dno sal age dno_ budget]"},
	} {
		q := tc.sel + " " + tc.orderBy
		if _, err := eng.Explain(bg, q); err != nil {
			t.Errorf("EXPLAIN %s: %v", q, err)
			continue
		}
		got, err := eng.Query(bg, q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		base, err := eng.Query(bg, tc.sel)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(base.Rows)
		slices.SortStableFunc(want, func(a, b []any) int {
			for i, c := range tc.cols {
				if d := cmp.Compare(num(a[c]), num(b[c])); d != 0 {
					if tc.desc[i] {
						return -d
					}
					return d
				}
			}
			return 0
		})
		if fmt.Sprint(got.Rows) != fmt.Sprint(want) {
			t.Errorf("%s: rows are not the unordered rows sorted by position", q)
		}
		if names := fmt.Sprint(got.Columns); names != tc.names {
			t.Errorf("%s: columns %s, want %s", q, names, tc.names)
		}
	}
}
