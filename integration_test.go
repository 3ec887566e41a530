package aggview_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aggview"
)

// TestIntegrationWarehouse drives the whole stack on the TPC-D-like schema:
// DDL views, nested subqueries, multi-view joins, every optimizer mode, and
// cross-checks row counts between modes on every query.
func TestIntegrationWarehouse(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	spec := aggview.DefaultTPCD()
	spec.Lineitems = 6000
	if err := eng.LoadTPCD(spec); err != nil {
		t.Fatal(err)
	}

	eng.MustExec(`create view part_qty (partkey, aqty) as
		select partkey, avg(qty) from lineitem group by partkey`)
	eng.MustExec(`create view order_value (orderkey, value) as
		select orderkey, sum(price) from lineitem group by orderkey`)

	queries := []string{
		// Named aggregate view joined with base tables.
		`select p.brand, l.qty from lineitem l, part p, part_qty v
		 where l.partkey = p.partkey and v.partkey = p.partkey
		   and p.brand < 5 and l.qty < v.aqty`,
		// Two views at once.
		`select v.aqty, o.value from part_qty v, order_value o, lineitem l
		 where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 45`,
		// Nested subquery over the star schema.
		`select l.price from lineitem l, part p
		 where p.partkey = l.partkey and p.brand = 1
		   and l.qty < (select avg(l2.qty) from lineitem l2 where l2.partkey = p.partkey)`,
		// Grouped top block over a view output.
		`select p.brand, max(v.aqty) from part p, part_qty v
		 where v.partkey = p.partkey group by p.brand having max(v.aqty) > 10`,
		// IN subquery.
		`select p.partkey from part p
		 where p.size < 4 and p.partkey in
		   (select l.partkey from lineitem l where l.qty > 48)`,
		// Plain aggregation with order by and limit.
		`select c.nation, count(*) as n from customer c, orders o
		 where o.custkey = c.custkey group by c.nation order by n desc limit 3`,
	}

	for i, q := range queries {
		var want int = -1
		for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full} {
			res, err := eng.Query(context.Background(), q, aggview.WithMode(mode), aggview.WithColdCache())
			if err != nil {
				t.Fatalf("query %d mode %v: %v", i, mode, err)
			}
			info, io := res.Plan, res.IO
			if info.EstimatedCost <= 0 || io.Total() <= 0 {
				t.Fatalf("query %d mode %v: degenerate cost/io %g/%d", i, mode, info.EstimatedCost, io.Total())
			}
			if want < 0 {
				want = res.Len()
			} else if res.Len() != want {
				t.Fatalf("query %d: mode %v returned %d rows, want %d\n%s",
					i, mode, res.Len(), want, info.PlanText)
			}
		}
		if want == 0 && i != 4 { // the IN query may legitimately be tiny
			t.Logf("query %d returned no rows (acceptable but worth noting)", i)
		}
	}
}

// TestIntegrationRandomizedQueries generates random emp/dept queries (the
// engine's whole dialect) and checks mode agreement on each.
func TestIntegrationRandomizedQueries(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = 4000, 60
	if err := eng.LoadEmpDept(spec); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(777))

	aggFns := []string{"avg", "sum", "min", "max", "count"}
	for i := 0; i < 25; i++ {
		agg := aggFns[r.Intn(len(aggFns))]
		ageCut := 19 + r.Intn(45)
		budgetCut := 150000 + r.Intn(800000)
		var q string
		switch i % 5 {
		case 0: // nested correlated
			q = fmt.Sprintf(`select e1.sal from emp e1
				where e1.age < %d and e1.sal > (select %s(e2.sal) from emp e2 where e2.dno = e1.dno)`,
				ageCut, agg)
		case 1: // derived aggregate view
			q = fmt.Sprintf(`select e1.eno from emp e1,
				(select dno, %s(sal) as v from emp group by dno) b
				where e1.dno = b.dno and e1.sal > b.v and e1.age < %d`, agg, ageCut)
		case 2: // grouped join
			q = fmt.Sprintf(`select e.dno, %s(e.sal) from emp e, dept d
				where e.dno = d.dno and d.budget < %d group by e.dno`, agg, budgetCut)
		case 3: // grouped with having
			q = fmt.Sprintf(`select e.dno, count(*) from emp e
				group by e.dno having count(*) > %d`, r.Intn(50))
		default: // exists
			q = fmt.Sprintf(`select d.dno from dept d
				where exists (select e.eno from emp e where e.dno = d.dno and e.age < %d)`, ageCut)
		}
		if agg == "count" {
			q = strings.ReplaceAll(q, "count(e2.sal)", "min(e2.sal)")
			q = strings.ReplaceAll(q, "count(sal)", "min(sal)")
			q = strings.ReplaceAll(q, "count(e.sal)", "min(e.sal)")
		}

		var want = -1
		var tradCost float64
		for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.Full} {
			res, err := eng.Query(context.Background(), q, aggview.WithMode(mode), aggview.WithColdCache())
			if err != nil {
				t.Fatalf("trial %d mode %v: %v\nquery: %s", i, mode, err, q)
			}
			info := res.Plan
			if mode == aggview.Traditional {
				tradCost = info.EstimatedCost
				want = res.Len()
			} else {
				if res.Len() != want {
					t.Fatalf("trial %d: modes disagree (%d vs %d)\nquery: %s\nplan:\n%s",
						i, res.Len(), want, q, info.PlanText)
				}
				if info.EstimatedCost > tradCost+1e-6 {
					t.Fatalf("trial %d: full cost %g > traditional %g\nquery: %s",
						i, info.EstimatedCost, tradCost, q)
				}
			}
		}
	}
}
