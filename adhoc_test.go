package aggview_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"aggview"
)

// adhocTemplates are the repo benchmark's adhoc-plan templates
// (bench/workloads.go, a separate module) with their three literal bases
// each. %s takes a literal that is new on every statement but cannot change
// the answer: only its digits after the ninth decimal place vary, and the
// columns it is compared with hold whole numbers.
var adhocTemplates = []struct {
	name, sql string
	bases     [3]float64
}{
	{"view-join-filter", `select p.brand, l.qty from lineitem l, part p, part_qty v
		where l.partkey = p.partkey and v.partkey = p.partkey and p.brand < 5 and l.qty < v.aqty and l.qty > %s`,
		[3]float64{0.5, 10.5, 20.5}},
	{"two-views-join", `select v.aqty, o.value from part_qty v, order_value o, lineitem l
		where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > %s`,
		[3]float64{40.5, 44.5, 47.5}},
	{"grouped-having-over-view", `select p.brand, max(v.aqty) from part p, part_qty v
		where v.partkey = p.partkey and p.size > %s group by p.brand having max(v.aqty) > 10`,
		[3]float64{0.5, 10.5, 25.5}},
	{"star-4", `select c.nation, sum(l.qty) as q, count(*) as n from lineitem l, orders o, customer c, part p
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.partkey = p.partkey and p.brand < 10 and l.qty > %s
		group by c.nation`,
		[3]float64{5.5, 20.5, 35.5}},
	{"star-5", `select s.nation, c.segment, count(*) as n from lineitem l, orders o, customer c, part p, supplier s
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.partkey = p.partkey and l.suppkey = s.suppkey
		and p.size < 20 and l.qty > %s group by s.nation, c.segment`,
		[3]float64{5.5, 20.5, 35.5}},
	{"star-6-over-view", `select c.nation, max(v.aqty) as m from lineitem l, orders o, customer c, part p, supplier s, part_qty v
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.partkey = p.partkey and l.suppkey = s.suppkey
		and v.partkey = p.partkey and s.nation < 10 and l.qty > %s group by c.nation`,
		[3]float64{5.5, 20.5, 35.5}},
	{"example1-nested", `select l.qty from lineitem l where l.discount < 0.03 and l.qty > %s
		and l.qty > (select avg(l2.qty) from lineitem l2 where l2.partkey = l.partkey)`,
		[3]float64{0.5, 10.5, 20.5}},
}

// adhocEngine is adhoc-plan's set-up: a 400-lineitem warehouse held by a
// 256-page pool, under the two aggregate views.
func adhocEngine(tb testing.TB) *aggview.Engine {
	tb.Helper()
	eng := aggview.Open(aggview.Config{PoolPages: 256})
	if err := eng.LoadTPCD(aggview.TPCDSpec{Seed: 1, Lineitems: 400}); err != nil {
		tb.Fatal(err)
	}
	eng.MustExec(`create view part_qty (partkey, aqty) as select partkey, avg(qty) from lineitem group by partkey`)
	eng.MustExec(`create view order_value (orderkey, value) as select orderkey, sum(price) from lineitem group by orderkey`)
	return eng
}

// adhocText is the k-th statement of adhoc-plan's rotation: the templates
// in turn, each with its bases in turn, the literal made unique by k.
func adhocText(k int) string {
	t := adhocTemplates[k%len(adhocTemplates)]
	base := t.bases[k/len(adhocTemplates)%len(t.bases)]
	return fmt.Sprintf(t.sql, fmt.Sprintf("%.9f", base+float64(k+1)*1e-9))
}

// adhocRun sends the k-th statement through Engine.Query, which must miss
// the plan cache, and returns the plans its search costed.
func adhocRun(tb testing.TB, eng *aggview.Engine, k int) int {
	res, err := eng.Query(context.Background(), adhocText(k))
	if err != nil {
		tb.Fatalf("statement %d: %v", k, err)
	}
	if res.Plan.CacheStatus != "miss" {
		tb.Fatalf("statement %d: cache status %q, want miss", k, res.Plan.CacheStatus)
	}
	return res.Plan.Search.PlansConsidered
}

// BenchmarkQueryAdhocMix is adhoc-plan as a Go benchmark: the seven
// templates in rotation through Engine.Query on one goroutine, each text
// new, so every statement is lexed, parsed, bound, optimized, compiled and
// run. With -benchmem, B/op and allocs/op are what one plan-cache miss
// allocates; gc/1k-stmts counts the collections that garbage causes, and
// plans/op the candidates the search costed, as the mean over whole
// rotations: the statements after the timed ones that complete the last
// rotation run untimed and are counted, so the figure does not move with
// b.N.
func BenchmarkQueryAdhocMix(b *testing.B) {
	eng := adhocEngine(b)
	warm := len(adhocTemplates)
	for k := 0; k < warm; k++ {
		adhocRun(b, eng, k) // fill the pool
	}
	var plans int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plans += adhocRun(b, eng, warm+i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	whole := (b.N + warm - 1) / warm * warm
	for i := b.N; i < whole; i++ {
		plans += adhocRun(b, eng, warm+i)
	}
	b.ReportMetric(float64(after.NumGC-before.NumGC)*1000/float64(b.N), "gc/1k-stmts")
	b.ReportMetric(float64(plans)/float64(whole), "plans/op")
}

// TestAdhocAllocationCeilings bounds what one plan-cache miss allocates
// through Engine.Query, as the mean over a rotation of adhoc-plan's seven
// templates: lexing, parsing, binding, the search, compiling the plan for
// the executor, running it and converting its rows. Bytes and objects are
// the medians over single rotations, each measured from the same pool
// state (allocsPerRun): read as they were before, one collection inside a
// rotation emptied the pools and the rotation read up to 99 kB refilling
// them; now it reads 83–84 kB and 835–840 objects. The rotation measured
// 91 kB and 880 objects a statement when the ceilings were set 10 % above. Before the search extended plans only by linked
// relations, and before its column walks, schemas and validation stopped
// allocating per check, a statement took 173 kB and 1 602 objects.
func TestAdhocAllocationCeilings(t *testing.T) {
	eng := adhocEngine(t)
	k := 0
	rotation := func() {
		for range adhocTemplates {
			adhocRun(t, eng, k)
			k++
		}
	}
	rotation() // fill the pool
	bytes, objects := allocsPerRun(11, rotation)
	per := float64(len(adhocTemplates))
	bytes, objects = bytes/per, objects/per
	t.Logf("%.0f bytes, %.0f objects per statement", bytes, objects)
	const maxBytes, maxObjects = 100.6e3, 968
	if !raceEnabled && (bytes > maxBytes || objects > maxObjects) {
		t.Errorf("%.0f bytes and %.0f objects per statement, ceilings %.0f and %d",
			bytes, objects, maxBytes, maxObjects)
	}
}
