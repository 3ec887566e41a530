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

// allocsPerRun returns the median bytes and objects one call of fn
// allocates over runs calls, each measured from the same pool state. A
// collection empties the executor's pools (a sync.Pool keeps a victim
// generation; the unmeasured call after it drains that), and the call
// refills them for the measured one. A collection inside a measured call
// would empty the pools mid-call, and the call would read what refilling
// them allocates; after a forced collection the heap grows far less than
// the collector's trigger before the measured call ends, so none falls
// there. GOMAXPROCS is 1 while the calls run, as in testing.AllocsPerRun.
func allocsPerRun(runs int, fn func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b, o := make([]float64, runs), make([]float64, runs)
	for i := range runs {
		runtime.GC()
		fn()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		b[i], o[i] = float64(after.TotalAlloc-before.TotalAlloc), float64(after.Mallocs-before.Mallocs)
	}
	slices.Sort(b)
	slices.Sort(o)
	return b[runs/2], o[runs/2]
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
// view-join-filter measures 0.49 MB / 1.42 k, two-views-join 1.22 MB /
// 5.83 k and star-3-aggregate 0.25 MB / 129. With single-column INT key
// tables indexing their keys directly, view-join-filter measures 0.48 MB /
// 1.42 k, two-views-join 1.22 MB / 5.83 k and star-3-aggregate 0.15 MB /
// 128. With column pages, and the join's build store, chains and key
// tables, the aggregation states and the scans' page queues recycled
// across runs, view-join-filter measured 0.27–0.32 MB / 1.44 k,
// two-views-join 0.43–0.49 MB / 5.80 k and star-3-aggregate 9.1–9.6 kB /
// 112–127, the higher readings when a collection fell inside the run.
// Measured from the same pool state every run (allocsPerRun), with the
// joins probing and the aggregations finishing a batch at a time,
// view-join-filter measures 180 kB / 1 395, two-views-join 430 kB /
// 5 792 and star-3-aggregate 8.9 kB / 105. With each compiled plan's
// operator tree kept between runs instead of built per run, and key tables
// over a VARCHAR key starting hashed, view-join-filter measures 144 kB /
// 1 340, two-views-join 393 kB / 5 732 and star-3-aggregate 4.1 kB / 61.
// The ceilings are 10 % above those readings: ceilings only move down.
func TestExecAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 24 000-lineitem warehouse")
	}
	eng := warmExecEngine(t)
	ctx := context.Background()
	ceilings := map[string]struct{ bytes, objects float64 }{
		"star-3-aggregate": {4.48e3, 67},
		"two-views-join":   {4.32e5, 6305},
		"view-join-filter": {1.58e5, 1474},
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
		bytes, objects := allocsPerRun(11, func() {
			if _, err := stmt.QueryContext(ctx, st.arg); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		})
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
// table: the view's rows are the same). The rotation measures 38.6 objects
// a call; with the statement parsed on every call and operator labels
// formatted on every run it was 219, with expressions compiled on every
// run 109, with a slice per result row and per-run key hashes 86, and with
// the operator tree, its metering slots and the result's rows built on
// every run, and each VARCHAR key table converted from the dense layout,
// 74 (63.6 on the host that measured 38.6). The ceiling is 10 % above
// 38.6, so none of them creeps back unnoticed.
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
	const ceiling = 42.5
	objects := testing.AllocsPerRun(20, rotation) / float64(len(rollupStatements))
	t.Logf("%.1f objects per cache hit", objects)
	if !raceEnabled && objects > ceiling {
		t.Errorf("%.1f objects per cache hit, ceiling %.1f", objects, ceiling)
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
