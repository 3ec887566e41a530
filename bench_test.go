// Benchmarks regenerating the paper-reproduction experiments (one per
// table/figure/claim; see DESIGN.md's per-experiment index) plus
// micro-benchmarks of the optimizer and executor. The experiment benches
// run the reduced-size (quick) configurations; `go run ./cmd/aggbench`
// produces the full-size tables recorded in EXPERIMENTS.md.
package aggview_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/experiments"
)

// benchExperiment runs one experiment per iteration and reports the first
// numeric "gain" column of its last row as a metric when present.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, true)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if strings.Contains(tbl.String(), "BUG") {
			b.Fatalf("%s flagged an inconsistency:\n%s", id, tbl)
		}
		if i == b.N-1 {
			reportGain(b, tbl)
		}
	}
}

// reportGain surfaces the maximum "x.xx×"-style gain found in the table.
func reportGain(b *testing.B, tbl *experiments.Table) {
	b.Helper()
	best := 0.0
	for _, row := range tbl.Rows {
		for _, cell := range row {
			if !strings.HasSuffix(cell, "x") {
				continue
			}
			if v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64); err == nil && v > best {
				best = v
			}
		}
	}
	if best > 0 {
		b.ReportMetric(best, "max-gain")
	}
}

func BenchmarkExample1Crossover(b *testing.B)         { benchExperiment(b, "E1") }  // Example 1
func BenchmarkExample2InvariantGrouping(b *testing.B) { benchExperiment(b, "E2") }  // Example 2
func BenchmarkPullUpEquivalence(b *testing.B)         { benchExperiment(b, "E3") }  // Figure 1
func BenchmarkPushDownEquivalence(b *testing.B)       { benchExperiment(b, "E4") }  // Figure 2
func BenchmarkFigure4Alternatives(b *testing.B)       { benchExperiment(b, "E5") }  // Figure 4: the search's own four alternatives
func BenchmarkFigure5MultiView(b *testing.B)          { benchExperiment(b, "E6") }  // Figure 5
func BenchmarkNeverWorse(b *testing.B)                { benchExperiment(b, "E7") }  // §5 guarantee
func BenchmarkSearchSpaceGrowth(b *testing.B)         { benchExperiment(b, "E8") }  // §5.2 / [CS94]
func BenchmarkKLevelPullUp(b *testing.B)              { benchExperiment(b, "E9") }  // §5.3 restrictions
func BenchmarkFlattenNestedQuery(b *testing.B)        { benchExperiment(b, "E10") } // §1 flattening
func BenchmarkSingleBlockGroupBy(b *testing.B)        { benchExperiment(b, "E11") } // §5.2
func BenchmarkPullUpAblation(b *testing.B)            { benchExperiment(b, "E12") } // §3 trade-offs

// --- optimizer micro-benchmarks -------------------------------------------

func exampleEngine(b *testing.B, nEmp, nDept int) *aggview.Engine {
	b.Helper()
	eng := aggview.Open(aggview.Config{PoolPages: 32})
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = nEmp, nDept
	if err := eng.LoadEmpDept(spec); err != nil {
		b.Fatal(err)
	}
	return eng
}

const example1Nested = `
	select e1.sal from emp e1
	where e1.age < 22
	  and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`

// BenchmarkOptimizeExample1 measures pure optimization time (parse, bind,
// flatten, enumerate) per mode.
func BenchmarkOptimizeExample1(b *testing.B) {
	eng := exampleEngine(b, 5000, 100)
	for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full} {
		b.Run(mode.String(), func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				info, err := eng.Explain(context.Background(), example1Nested, aggview.WithMode(mode))
				if err != nil {
					b.Fatal(err)
				}
				states = info.Search.States
			}
			b.ReportMetric(float64(states), "dp-states")
		})
	}
}

// BenchmarkOptimizeStarJoin measures enumeration growth with relation count.
func BenchmarkOptimizeStarJoin(b *testing.B) {
	for _, dims := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("rels-%d", dims+1), func(b *testing.B) {
			eng := exampleEngine(b, 2000, 50)
			q := `select e.dno, sum(e.sal) from emp e`
			where := ` where 1 = 1`
			for d := 0; d < dims; d++ {
				eng.MustExec(fmt.Sprintf(`create table bdim%d (dno int primary key, a int)`, d))
				for v := 0; v < 50; v++ {
					eng.MustExec(fmt.Sprintf(`insert into bdim%d values (%d, %d)`, d, v, v%5))
				}
				q += fmt.Sprintf(`, bdim%d x%d`, d, d)
				where += fmt.Sprintf(` and e.dno = x%d.dno`, d)
			}
			eng.MustExec(`analyze`)
			q += where + ` group by e.dno`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Explain(context.Background(), q, aggview.WithMode(aggview.PushDown)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- end-to-end execution benchmarks ---------------------------------------

// BenchmarkExecuteExample1 measures end-to-end latency (optimize + execute,
// warm cache) of Example 1 per optimizer mode.
func BenchmarkExecuteExample1(b *testing.B) {
	eng := exampleEngine(b, 20000, 2000)
	for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.Full} {
		b.Run(mode.String(), func(b *testing.B) {
			var io int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(context.Background(), example1Nested, aggview.WithMode(mode), aggview.WithColdCache())
				if err != nil {
					b.Fatal(err)
				}
				io = res.IO.Total()
			}
			b.ReportMetric(float64(io), "page-ios")
		})
	}
}

// BenchmarkExecuteGroupBy measures aggregation throughput (rows/op carried
// in the metric) for hash aggregation over the emp table.
func BenchmarkExecuteGroupBy(b *testing.B) {
	eng := exampleEngine(b, 50000, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(context.Background(), `select dno, avg(sal), count(*) from emp group by dno`)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 500 {
			b.Fatalf("groups = %d", res.Len())
		}
	}
	b.ReportMetric(50000, "rows-aggregated")
}

// BenchmarkExecuteJoin measures hash-join throughput on emp ⋈ dept.
func BenchmarkExecuteJoin(b *testing.B) {
	eng := exampleEngine(b, 50000, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(context.Background(), `select count(*) from emp e, dept d where e.dno = d.dno`)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0][0].(int64) != 50000 {
			b.Fatalf("count = %v", res.Rows[0][0])
		}
	}
}

// BenchmarkMatViewMaintain measures incremental view maintenance the way
// the repo benchmark's durable-rw writer drives it, without the log: per
// iteration 1 000 transactions of four single-row INSERTs into the base
// table of a 24-group view. It reports the time per commit and the rows
// the backing table holds at the end — bounded by the groups, not by the
// 4 000 delta rows appended.
func BenchmarkMatViewMaintain(b *testing.B) {
	const commits = 1000
	var backingRows int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := aggview.Open(aggview.Config{PoolPages: 64})
		eng.MustExec(`create table sales (region text, product text, amount float, qty int)`)
		var vals []string
		for g := 0; g < 24; g++ {
			vals = append(vals, fmt.Sprintf("('r%d', 'p%d', 1.5, 1)", g%3, g%8))
		}
		eng.MustExec("insert into sales values " + strings.Join(vals, ", "))
		eng.MustExec(`create materialized view sales_rollup as
			select region, product, sum(amount) as total, count(*) as n, avg(qty) as avgq
			from sales group by region, product`)
		b.StartTimer()
		for c := 0; c < commits; c++ {
			tx, err := eng.Begin(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 4; j++ {
				if _, err := tx.Exec(fmt.Sprintf("insert into sales values ('r%d', 'p%d', 2.5, 1)", c%3, (c+j)%8)); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		backingRows, _, _ = eng.MatViewRows("sales_rollup")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*commits), "ns/commit")
	b.ReportMetric(float64(backingRows), "backing-rows")
}

// --- plan-cache hit ----------------------------------------------------------

// rollupStatements are the repo benchmark's rollup-hot / durable-rw texts
// (bench/workloads.go, a separate module): none mentions the materialized
// view; the optimizer answers each from sales_rollup's 24 rows.
var rollupStatements = []string{
	`select region, product, sum(amount) as total, count(*) as n from sales group by region, product`,
	`select region, sum(amount) as total, count(*) as n, avg(qty) as avgq from sales group by region`,
	`select product, count(*) as n from sales where region = 'r1' group by product`,
	`select product, sum(amount) as total, count(*) as n from sales group by product`,
	`select region, count(*) as n, avg(qty) as avgq from sales where region = 'r2' group by region`,
}

// rollupEngine is that workload's set-up: a sales fact table of the given
// size (3 regions x 24 products x 30 days), analyzed, under sales_rollup.
func rollupEngine(tb testing.TB, salesRows int) *aggview.Engine {
	tb.Helper()
	eng := aggview.Open(aggview.Config{PoolPages: 64})
	eng.MustExec(`create table sales (region text, product text, day int, amount float, qty int)`)
	const batch = 2000
	for lo := 0; lo < salesRows; lo += batch {
		var vals []string
		for i := lo; i < lo+batch && i < salesRows; i++ {
			vals = append(vals, fmt.Sprintf("('r%d', 'p%d', %d, %d.5, %d)", i%3, i%24, i%30, i%100, i%7+1))
		}
		eng.MustExec("insert into sales values " + strings.Join(vals, ", "))
	}
	eng.MustExec(`analyze`)
	eng.MustExec(`create materialized view sales_rollup as
		select region, product, sum(amount) as total, count(*) as n, avg(qty) as avgq
		from sales group by region, product`)
	return eng
}

// BenchmarkQueryCacheHit is rollup-hot as a Go benchmark: the five rollup
// texts through Engine.Query from parallel clients, every call a plan-cache
// hit answered from one page of the view — the engine's fixed cost per call
// (cache key, LRU, snapshot pin, governor, operator build over the frozen
// plan, 24 rows of aggregation, result conversion, metrics).
func BenchmarkQueryCacheHit(b *testing.B) {
	eng := rollupEngine(b, 40000)
	ctx := context.Background()
	for _, q := range rollupStatements {
		if res, err := eng.Query(ctx, q); err != nil || res.Plan.ViewRewrite == "" {
			b.Fatalf("warm-up %q: err %v, plan %+v", q, err, res.Plan)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			res, err := eng.Query(ctx, rollupStatements[i%len(rollupStatements)])
			if err != nil || res.Plan.CacheStatus != "hit" {
				b.Errorf("err %v, plan %+v", err, res.Plan)
				return
			}
		}
	})
}
