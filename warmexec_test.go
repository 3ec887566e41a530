package aggview_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"aggview"
)

// warmExecStatements are the repo benchmark's warm-exec statements
// (bench/workloads.go, a separate module) with the first parameter of each
// rotation: every plan is hash joins under hash group-bys over the
// warehouse's two aggregate views.
var warmExecStatements = []struct {
	name, sql string
	arg       any
}{
	{"view-join-filter", `select p.brand, l.qty from lineitem l, part p, part_qty v
		where l.partkey = p.partkey and v.partkey = p.partkey and p.brand < ? and l.qty < v.aqty`, 3},
	{"two-views-join", `select v.aqty, o.value from part_qty v, order_value o, lineitem l
		where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > ?`, 44},
	{"grouped-having-over-view", `select p.brand, max(v.aqty) from part p, part_qty v
		where v.partkey = p.partkey group by p.brand having max(v.aqty) > ?`, 10},
	{"left-join-count", `select c.nation, count(o.orderkey) from customer c
		left join orders o on o.custkey = c.custkey and o.total > ? group by c.nation`, 30000},
	{"star-3-aggregate", `select c.nation, sum(l.qty) as q, count(*) as n from lineitem l, orders o, customer c
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.qty > ? group by c.nation`, 10},
}

// warmExecEngine is that workload's set-up: 24 000 lineitems, everything in
// the pool, the two views.
func warmExecEngine(tb testing.TB) *aggview.Engine {
	tb.Helper()
	eng := aggview.Open(aggview.Config{PoolPages: 4096})
	if err := eng.LoadTPCD(aggview.TPCDSpec{Seed: 1, Lineitems: 24000}); err != nil {
		tb.Fatal(err)
	}
	eng.MustExec(`create view part_qty (partkey, aqty) as select partkey, avg(qty) from lineitem group by partkey`)
	eng.MustExec(`create view order_value (orderkey, value) as select orderkey, sum(price) from lineitem group by orderkey`)
	return eng
}

// BenchmarkWarmExec runs each warm-exec statement alone through its cached
// plan: the executor's time, bytes and objects per statement.
func BenchmarkWarmExec(b *testing.B) {
	eng := warmExecEngine(b)
	ctx := context.Background()
	for _, st := range warmExecStatements {
		b.Run(st.name, func(b *testing.B) {
			stmt, err := eng.Prepare(st.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.QueryContext(ctx, st.arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestExecAllocationCeilings bounds what one cached-plan execution of two
// warm-exec statements allocates. The bytes and objects are the executor's
// key tables, build-row chains and output rows; with Go maps keyed by
// serialized keys in their place the two measured 5.8 MB / 57 k objects and
// 5.2 MB / 59 k. With the plan compiled once they measure 1.08 MB / 170 and
// 1.89 MB / 11.6 k, and the ceilings are 10 % above that.
func TestExecAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 24 000-lineitem warehouse")
	}
	eng := warmExecEngine(t)
	ctx := context.Background()
	ceilings := map[string]struct{ bytes, objects float64 }{
		"star-3-aggregate": {1.19e6, 187},
		"two-views-join":   {2.08e6, 12800},
	}
	for _, st := range warmExecStatements {
		max, ok := ceilings[st.name]
		if !ok {
			continue
		}
		stmt, err := eng.Prepare(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		run := func() {
			if _, err := stmt.QueryContext(ctx, st.arg); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		const runs = 11
		objects := testing.AllocsPerRun(runs, run)
		// Bytes are the median of single executions: a garbage collection
		// can empty the executor's slab pool mid-run (and AllocsPerRun, by
		// changing GOMAXPROCS, just did), and the run that refills it reads
		// megabytes high.
		perRun := make([]float64, runs)
		for i := range perRun {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			perRun[i] = float64(after.TotalAlloc - before.TotalAlloc)
		}
		slices.Sort(perRun)
		bytes := perRun[runs/2]
		t.Logf("%s: %.0f bytes, %.0f objects per execution", st.name, bytes, objects)
		if raceEnabled {
			continue
		}
		if bytes > max.bytes || objects > max.objects {
			t.Errorf("%s: %.0f bytes and %.0f objects per execution, ceilings %.0f and %.0f",
				st.name, bytes, objects, max.bytes, max.objects)
		}
	}
}

// TestCacheHitAllocationCeiling bounds the objects one plan-cache hit
// allocates through Engine.Query, as the mean over the rollup-hot rotation
// (the statements and set-up of BenchmarkQueryCacheHit, on a smaller fact
// table: the view's rows are the same). The rotation measures 86 objects a
// call; with the statement parsed on every call and operator labels
// formatted on every run it was 219, and with expressions compiled on every
// run 109. The ceiling is 10 % above 86, so none of them creeps back
// unnoticed.
func TestCacheHitAllocationCeiling(t *testing.T) {
	eng := rollupEngine(t, 6000)
	ctx := context.Background()
	rotation := func() {
		for _, q := range rollupStatements {
			res, err := eng.Query(ctx, q)
			if err != nil || res.Plan.CacheStatus == "bypass" || res.Plan.ViewRewrite == "" {
				t.Fatalf("%q: err %v, plan %+v", q, err, res.Plan)
			}
		}
	}
	rotation() // compile and cache
	const ceiling = 95
	objects := testing.AllocsPerRun(20, rotation) / float64(len(rollupStatements))
	t.Logf("%.1f objects per cache hit", objects)
	if !raceEnabled && objects > ceiling {
		t.Errorf("%.1f objects per cache hit, ceiling %d", objects, ceiling)
	}
}
