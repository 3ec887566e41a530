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
func warmExecEngine(tb testing.TB) *aggview.Engine { return warmExecEngineAt(tb, 4096) }

// warmExecEngineAt is warmExecEngine's warehouse and views on a pool of the
// given size.
func warmExecEngineAt(tb testing.TB, poolPages int) *aggview.Engine {
	tb.Helper()
	eng := aggview.Open(aggview.Config{PoolPages: poolPages})
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

// TestExecAllocationCeilings bounds what one cached-plan execution of three
// warm-exec statements allocates. The bytes and objects are the executor's
// key tables, build-row chains and output rows, so they follow the hash
// joins' build inputs. With each inner hash join built on the input the
// model finds cheaper, or on fewer pages at equal cost, star-3-aggregate
// measures 0.29 MB / 164 objects (1.08 MB built on the lineitems) and
// view-join-filter 0.75 MB / 4.1 k (1.58 MB). two-views-join measures
// 1.90 MB / 11.6 k (1.80 MB): it now builds on order_value's 5 889 groups,
// not on the l.qty > ? scan, because the model expects 8 000 rows from the
// scan where 2 857 arrive. With hash aggregation tables presized from the
// plan's group estimate, key hashes in pooled batches and result rows
// carved from shared chunks, view-join-filter measured 0.59 MB / 2.8 k,
// two-views-join 1.55 MB / 8.7 k and star-3-aggregate 0.25 MB / 132. With
// a projection's rows carved from its arena, not allocated one by one,
// view-join-filter measures 0.49 MB / 1.42 k, two-views-join 1.40 MB /
// 5.83 k and star-3-aggregate 0.25 MB / 129. With single-column INT key
// tables indexing their keys directly, view-join-filter measures 0.48 MB /
// 1.42 k, two-views-join 1.22 MB / 5.83 k and star-3-aggregate 0.15 MB /
// 128. With column pages, and the join's build store, chains and key
// tables, the aggregation states and the scans' page queues recycled
// across runs, view-join-filter measures 0.27–0.32 MB / 1.44 k,
// two-views-join 0.43–0.49 MB / 5.80 k and star-3-aggregate 9.1–9.6 kB /
// 112–127 (the higher readings when collections fall inside the run, as
// under the whole suite; BenchmarkWarmExec's mean reads star-3-aggregate
// at 18.4 kB). The ceilings are 10 % above the highest, the objects of
// view-join-filter excepted: ceilings only move down.
func TestExecAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 24 000-lineitem warehouse")
	}
	eng := warmExecEngine(t)
	ctx := context.Background()
	ceilings := map[string]struct{ bytes, objects float64 }{
		"star-3-aggregate": {2.02e4, 140},
		"two-views-join":   {5.42e5, 6390},
		"view-join-filter": {3.47e5, 1560},
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
// table: the view's rows are the same). The rotation measures 74 objects a
// call; with the statement parsed on every call and operator labels
// formatted on every run it was 219, with expressions compiled on every
// run 109, and with a slice per result row and per-run key hashes 86. The
// ceiling is 10 % above 74, so none of them creeps back unnoticed.
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
	const ceiling = 82
	objects := testing.AllocsPerRun(20, rotation) / float64(len(rollupStatements))
	t.Logf("%.1f objects per cache hit", objects)
	if !raceEnabled && objects > ceiling {
		t.Errorf("%.1f objects per cache hit, ceiling %d", objects, ceiling)
	}
}

// TestStarAggregateBuildsWithoutSpilling runs warm-exec's star-3-aggregate
// at the cold-io workload's 88-page pool. The model estimates 8 000 of the
// 19 210 lineitems that pass the filter, so both build sides of the top
// hash join fit by its numbers and the tie goes to the input with fewer
// pages, orders ⋈ customer. Built on the lineitems instead, the join
// overflows the budget and Grace-spills: 617 reads + 205 writes against an
// estimate of 412. Built on orders ⋈ customer, the run reads exactly the
// pages the model charges and spills none.
func TestStarAggregateBuildsWithoutSpilling(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 24 000-lineitem warehouse")
	}
	eng := warmExecEngineAt(t, 88)
	st := warmExecStatements[len(warmExecStatements)-1]
	if st.name != "star-3-aggregate" {
		t.Fatalf("last warm-exec statement is %s", st.name)
	}
	a, err := eng.ExplainAnalyze(context.Background(), st.sql, aggview.WithParams(st.arg))
	if err != nil {
		t.Fatal(err)
	}
	var spillReads, spillWrites int64
	var walk func(n *aggview.OpNode)
	walk = func(n *aggview.OpNode) {
		if n.Actual != nil {
			spillReads += n.Actual.SpillReads
			spillWrites += n.Actual.SpillWrites
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(a.Root)
	io := a.IO.Reads + a.IO.Writes
	if spillReads != 0 || spillWrites != 0 || float64(io) != a.Plan.EstimatedCost || io != 412 {
		t.Errorf("spill %d reads + %d writes; IO %d reads + %d writes, estimated %.0f, want no spill and 412 both\n%s",
			spillReads, spillWrites, a.IO.Reads, a.IO.Writes, a.Plan.EstimatedCost, a)
	}
}
