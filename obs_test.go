package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aggview"
)

// obsSuite is the warehouse query mix used by the attribution tests: scans,
// spilling joins, view expansion, grouped aggregation, and presentation
// clauses all exercise different operator shapes.
var obsSuite = []string{
	`select p.brand, l.qty from lineitem l, part p, part_qty v
	 where l.partkey = p.partkey and v.partkey = p.partkey
	   and p.brand < 5 and l.qty < v.aqty`,
	`select v.aqty, o.value from part_qty v, order_value o, lineitem l
	 where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 45`,
	`select p.brand, max(v.aqty) from part p, part_qty v
	 where v.partkey = p.partkey group by p.brand having max(v.aqty) > 10`,
	`select c.nation, count(*) as n from customer c, orders o
	 where o.custkey = c.custkey group by c.nation order by n desc limit 3`,
}

// sumTree sums the self-attributed page counters over an annotated operator
// tree, failing if any executed operator is missing its actuals.
func sumTree(t *testing.T, n *aggview.OpNode) (reads, writes, hits int64) {
	t.Helper()
	if n.Actual == nil {
		t.Fatalf("operator %q has no measured metrics", n.Label)
	}
	reads, writes, hits = n.Actual.Reads, n.Actual.Writes, n.Actual.Hits
	for _, c := range n.Children {
		r, w, h := sumTree(t, c)
		reads, writes, hits = reads+r, writes+w, hits+h
	}
	return reads, writes, hits
}

// sumOps sums page counters over a flat per-operator metrics slice.
func sumOps(ops []aggview.OpMetrics) (reads, writes, hits int64) {
	for i := range ops {
		reads += ops[i].Reads
		writes += ops[i].Writes
		hits += ops[i].Hits
	}
	return reads, writes, hits
}

// TestExplainAnalyzeAttributionExact is the tentpole invariant: for every
// query in the suite, under every optimizer mode, the per-operator page
// counters reported by EXPLAIN ANALYZE sum exactly to the engine's global
// IOStats delta for the run — no IO is lost, none is double-counted, and the
// unattributed bucket stays empty.
func TestExplainAnalyzeAttributionExact(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full} {
		m := eng.WithConfig(aggview.Config{Mode: mode})
		for qi, q := range obsSuite {
			eng.DropCaches() // flush ahead so the delta below is pure query IO
			before := eng.IOStats()
			a, err := m.ExplainAnalyze(context.Background(), q)
			if err != nil {
				t.Fatalf("mode %s query %d: %v", mode, qi, err)
			}
			delta := eng.IOStats().Sub(before)
			if a.IO != delta {
				t.Errorf("mode %s query %d: AnalyzeInfo.IO = %+v, engine delta = %+v", mode, qi, a.IO, delta)
			}
			if tot := a.Unattributed; tot.PagesTotal() != 0 || tot.Hits != 0 {
				t.Errorf("mode %s query %d: unattributed IO %+v (executor accounting hole)", mode, qi, tot)
			}
			r, w, h := sumTree(t, a.Root)
			if r != a.IO.Reads || w != a.IO.Writes || h != a.IO.Hits {
				t.Errorf("mode %s query %d: per-op sums reads=%d writes=%d hits=%d, want %+v",
					mode, qi, r, w, h, a.IO)
			}
			if a.Plan.Mode != mode || a.Plan.Degraded {
				t.Errorf("mode %s query %d: plan reports mode %s (degraded=%v)", mode, qi, a.Plan.Mode, a.Plan.Degraded)
			}
			if a.Plan.Trace == nil {
				t.Errorf("mode %s query %d: EXPLAIN ANALYZE should carry the search trace", mode, qi)
			}
		}
	}
}

// TestResultOpsSumToResultIO: the materializing Query path attaches the same
// exact per-operator metrics; equality with Result.IO implies zero
// unattributed IO (which is excluded from Ops).
func TestResultOpsSumToResultIO(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	for qi, q := range obsSuite {
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if len(res.Ops) == 0 {
			t.Fatalf("query %d: Result.Ops is empty", qi)
		}
		r, w, h := sumOps(res.Ops)
		if r != res.IO.Reads || w != res.IO.Writes || h != res.IO.Hits {
			t.Errorf("query %d: Ops sums reads=%d writes=%d hits=%d, want %+v", qi, r, w, h, res.IO)
		}
		if res.Plan == nil {
			t.Fatalf("query %d: Result.Plan is nil for a SELECT", qi)
		}
	}
}

// TestExplainAnalyzeExample1 is the acceptance check on the paper's
// Example 1 (the nested decision-support query): EXPLAIN ANALYZE shows each
// operator's actual page IO, the totals equal the engine's IOStats delta,
// and the cost model's estimate is reported alongside for the same plan.
func TestExplainAnalyzeExample1(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 32})
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = 2000, 50
	if err := eng.LoadEmpDept(spec); err != nil {
		t.Fatal(err)
	}

	ref, err := eng.Query(context.Background(), example1Nested)
	if err != nil {
		t.Fatal(err)
	}

	eng.DropCaches()
	before := eng.IOStats()
	a, err := eng.ExplainAnalyze(context.Background(), example1Nested)
	if err != nil {
		t.Fatal(err)
	}
	delta := eng.IOStats().Sub(before)

	if delta.Total() == 0 {
		t.Fatalf("cold Example 1 run charged no page IO; the check would be vacuous")
	}
	if a.IO != delta {
		t.Errorf("AnalyzeInfo.IO = %+v, engine delta = %+v", a.IO, delta)
	}
	r, w, h := sumTree(t, a.Root)
	if r != a.IO.Reads || w != a.IO.Writes || h != a.IO.Hits {
		t.Errorf("per-operator sums reads=%d writes=%d hits=%d, want %+v", r, w, h, a.IO)
	}
	if a.Rows != int64(ref.Len()) {
		t.Errorf("AnalyzeInfo.Rows = %d, want %d", a.Rows, ref.Len())
	}
	if a.Plan.EstimatedCost <= 0 || a.Root.EstCost <= 0 {
		t.Errorf("estimates missing: plan cost %.1f, root cost %.1f", a.Plan.EstimatedCost, a.Root.EstCost)
	}
	report := a.String()
	for _, want := range []string{"(actual", "(est rows=", "estimated cost:", "mode:", "search trace:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	// The SQL form renders the same report as rows and attaches the same
	// observability to the Result.
	res, err := eng.Exec("explain analyze " + example1Nested)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || len(res.Ops) == 0 || res.Len() == 0 {
		t.Fatalf("explain analyze result lacks plan/ops/rows: %+v", res)
	}
	r, w, h = sumOps(res.Ops)
	if r != res.IO.Reads || w != res.IO.Writes || h != res.IO.Hits {
		t.Errorf("SQL form: Ops sums reads=%d writes=%d hits=%d, want %+v", r, w, h, res.IO)
	}
	if !strings.Contains(res.String(), "(actual") {
		t.Errorf("SQL form output lacks actuals:\n%s", res)
	}
}

// TestQueryRowsStreams: the streaming iterator returns the same multiset as
// the materializing API, Scan converts values, and Close is idempotent.
func TestQueryRowsStreams(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	q := `select c.nation, count(*) as n from customer c, orders o
	      where o.custkey = c.custkey group by c.nation`
	ref, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	rows, err := eng.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows.Columns(), ref.Columns; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Columns() = %v, want %v", got, want)
	}
	var got aggview.Result
	got.Columns = rows.Columns()
	for rows.Next() {
		var nation, n int64
		if err := rows.Scan(&nation, &n); err != nil {
			t.Fatal(err)
		}
		got.Rows = append(got.Rows, []any{nation, n})
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if rowsFingerprint(&got) != rowsFingerprint(ref) {
		t.Fatalf("streamed rows differ from materialized result")
	}

	// After the stream is finished, the metrics are final and exact.
	r, w, h := sumOps(rows.Ops())
	io := rows.IO()
	if r != io.Reads || w != io.Writes || h != io.Hits {
		t.Errorf("streamed Ops sums reads=%d writes=%d hits=%d, want %+v", r, w, h, io)
	}
	if rows.Plan() == nil {
		t.Errorf("Rows.Plan() is nil")
	}
}

// TestQueryRowsOrderByAndLimit: ORDER BY materializes and sorts at open;
// LIMIT without ORDER BY stops pulling from the executor early.
func TestQueryRowsOrderByAndLimit(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})

	q := `select c.nation, count(*) as n from customer c, orders o
	      where o.custkey = c.custkey group by c.nation order by n desc limit 3`
	ref, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var streamed [][]any
	for rows.Next() {
		row := make([]any, len(rows.Value()))
		copy(row, rows.Value())
		streamed = append(streamed, row)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(streamed) != fmt.Sprint(ref.Rows) { // ordered compare
		t.Fatalf("ORDER BY stream = %v, want %v", streamed, ref.Rows)
	}

	// LIMIT streams: exactly 3 rows come out, then the cursor closes.
	rows, err = eng.QueryRows(context.Background(), `select l.orderkey from lineitem l limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("LIMIT 3 streamed %d rows", n)
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("leaked spill files %v", leaks)
	}
}

// TestQueryRowsEarlyClose: abandoning a partially consumed stream restores
// the engine cleanly — no spill leaks, hook restored, engine still answers.
func TestQueryRowsEarlyClose(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	q := `select v.aqty, o.value from part_qty v, order_value o, lineitem l
	      where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 45`
	rows, err := eng.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("early Close: %v", err)
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("early Close leaked spill files %v", leaks)
	}
	if _, err := eng.Query(context.Background(), `select count(*) from part`); err != nil {
		t.Fatalf("engine unusable after early Close: %v", err)
	}
}

// TestQueryRowsGovernance: per-Next governance surfaces the same sentinel
// errors as the materializing APIs, and the error paths keep the operator
// accounting exact.
func TestQueryRowsGovernance(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})

	// Row limit trips mid-iteration.
	limited := eng.WithConfig(aggview.Config{MaxRowsOut: 5})
	rows, err := limited.QueryRows(context.Background(), `select l.orderkey from lineitem l`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); !errors.Is(err, aggview.ErrRowLimit) {
		t.Fatalf("Err() = %v, want wrapped ErrRowLimit", err)
	}
	if n > 5 {
		t.Fatalf("row limit 5 let %d rows through", n)
	}
	r, w, h := sumOps(rows.Ops())
	io := rows.IO()
	if r != io.Reads || w != io.Writes || h != io.Hits {
		t.Errorf("error-path Ops sums reads=%d writes=%d hits=%d, want %+v", r, w, h, io)
	}
	rows.Close()
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("leaked spill files %v", leaks)
	}

	// Cancellation between Next calls aborts the stream.
	ctx, cancel := context.WithCancel(context.Background())
	rows, err = eng.QueryRows(ctx, `select l.orderkey from lineitem l`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("first Next failed: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, aggview.ErrCanceled) {
		t.Fatalf("Err() after cancel = %v, want wrapped ErrCanceled", err)
	}
	rows.Close()
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("canceled stream leaked spill files %v", leaks)
	}
}

// TestConfigModeHonored: an explicit Config.Mode — including Traditional,
// which shares the old zero value — is used as given, while the zero value
// ModeDefault still resolves to Full.
func TestConfigModeHonored(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 16})
	q := obsSuite[0]

	cases := []struct {
		cfg  aggview.Config
		want aggview.OptimizerMode
	}{
		{aggview.Config{Mode: aggview.Traditional}, aggview.Traditional},
		{aggview.Config{Mode: aggview.PushDown}, aggview.PushDown},
		{aggview.Config{Mode: aggview.Full}, aggview.Full},
		{aggview.Config{}, aggview.Full}, // ModeDefault resolves to Full
	}
	var want string
	for i, c := range cases {
		res, err := eng.WithConfig(c.cfg).Query(context.Background(), q)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Plan.Mode != c.want || res.Plan.RequestedMode != c.want || res.Plan.Degraded {
			t.Errorf("case %d: plan mode %s requested %s degraded=%v, want %s",
				i, res.Plan.Mode, res.Plan.RequestedMode, res.Plan.Degraded, c.want)
		}
		if i == 0 {
			want = rowsFingerprint(res)
		} else if got := rowsFingerprint(res); got != want {
			t.Errorf("case %d: mode %s changed the answer", i, c.want)
		}
	}

	// Open honors the mode directly too.
	direct := aggview.Open(aggview.Config{Mode: aggview.Traditional})
	if err := direct.LoadEmpDept(aggview.DefaultEmpDept()); err != nil {
		t.Fatal(err)
	}
	res, err := direct.Query(context.Background(), `select e.dno, avg(e.sal) from emp e group by e.dno`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Mode != aggview.Traditional {
		t.Errorf("Open(Config{Mode: Traditional}): plan mode %s", res.Plan.Mode)
	}
}

// TestMetricsRegistryAndSink: the engine-wide snapshot accumulates exactly
// the IO the queries performed (registry deltas equal store deltas over the
// window), counts queries and rows, and the sink sees every rollup.
func TestMetricsRegistryAndSink(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})

	// QueryMetrics.Rows counts rows the executor produced, before ORDER
	// BY/LIMIT presentation — for the limited query that is the full group
	// count, learned from the unlimited variant before the window opens.
	unlimited, err := eng.Query(context.Background(), `select c.nation, count(*) as n from customer c, orders o
	 where o.custkey = c.custkey group by c.nation`)
	if err != nil {
		t.Fatal(err)
	}

	var sunk []aggview.QueryMetrics
	prev := eng.SetMetricsSink(func(q aggview.QueryMetrics) { sunk = append(sunk, q) })
	defer eng.SetMetricsSink(prev)

	m0 := eng.Metrics()
	io0 := eng.IOStats()
	var wantRows int64
	for qi, q := range obsSuite {
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if qi == len(obsSuite)-1 {
			wantRows += int64(unlimited.Len())
		} else {
			wantRows += int64(res.Len())
		}
	}
	d := eng.Metrics().Sub(m0)
	dio := eng.IOStats().Sub(io0)

	if d.Queries != int64(len(obsSuite)) || d.Failures != 0 {
		t.Errorf("window: queries=%d failures=%d, want %d/0", d.Queries, d.Failures, len(obsSuite))
	}
	if d.Rows != wantRows {
		t.Errorf("window rows=%d, want %d", d.Rows, wantRows)
	}
	if d.PageReads != dio.Reads || d.PageWrites != dio.Writes || d.PageHits != dio.Hits {
		t.Errorf("registry IO reads=%d writes=%d hits=%d, store delta %+v",
			d.PageReads, d.PageWrites, d.PageHits, dio)
	}
	if d.PlansConsidered <= 0 {
		t.Errorf("window recorded no optimizer effort")
	}
	if d.QueryTime <= 0 || d.QueryTime < d.OptimizeTime {
		t.Errorf("window times inconsistent: query=%s optimize=%s execute=%s",
			d.QueryTime, d.OptimizeTime, d.ExecuteTime)
	}
	if len(sunk) != len(obsSuite) {
		t.Fatalf("sink saw %d rollups, want %d", len(sunk), len(obsSuite))
	}
	for i, qm := range sunk {
		if qm.Err != "" || qm.Statement == "" || qm.Mode == "" {
			t.Errorf("rollup %d: %+v", i, qm)
		}
	}

	// Engines derived via WithConfig feed the same registry.
	sunk = nil
	m1 := eng.Metrics()
	if _, err := eng.WithConfig(aggview.Config{Mode: aggview.Traditional}).Query(context.Background(), obsSuite[0]); err != nil {
		t.Fatal(err)
	}
	if d := eng.Metrics().Sub(m1); d.Queries != 1 {
		t.Errorf("derived engine did not contribute to the shared registry")
	}
	if len(sunk) != 1 || sunk[0].Mode != aggview.Traditional.String() {
		t.Errorf("derived engine rollup: %+v", sunk)
	}
}

// TestMetricsOnFailurePaths: injected faults and cancellation still publish
// a rollup whose IO matches the store delta exactly (the failing access is
// counted by neither side), classed by error, with no spill leaks.
func TestMetricsOnFailurePaths(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	q := obsSuite[1] // spilling multi-way join

	// Size the fault point from a clean armed run.
	eng.DropCaches()
	eng.InjectFault(aggview.FaultPlan{FailAt: -1})
	if _, err := eng.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ios := eng.FaultIOCount()
	eng.ClearFault()
	if ios < 4 {
		t.Fatalf("query charged only %d IOs; fault test would be vacuous", ios)
	}

	var sunk []aggview.QueryMetrics
	prev := eng.SetMetricsSink(func(qm aggview.QueryMetrics) { sunk = append(sunk, qm) })
	defer eng.SetMetricsSink(prev)

	// Mid-execution injected fault.
	eng.DropCaches()
	m0 := eng.Metrics()
	io0 := eng.IOStats()
	eng.InjectFault(aggview.FaultPlan{FailAt: ios / 2})
	_, err := eng.Query(context.Background(), q)
	eng.ClearFault()
	if !errors.Is(err, aggview.ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
	d := eng.Metrics().Sub(m0)
	dio := eng.IOStats().Sub(io0)
	if d.Queries != 1 || d.Failures != 1 {
		t.Errorf("fault window: queries=%d failures=%d, want 1/1", d.Queries, d.Failures)
	}
	if d.PageReads != dio.Reads || d.PageWrites != dio.Writes || d.PageHits != dio.Hits {
		t.Errorf("fault window registry IO reads=%d writes=%d hits=%d, store delta %+v",
			d.PageReads, d.PageWrites, d.PageHits, dio)
	}
	if len(sunk) != 1 || sunk[0].Err != "injected-fault" {
		t.Fatalf("fault rollup: %+v", sunk)
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("fault left spill files %v", leaks)
	}

	// Pre-execution cancellation (expired deadline): a rollup with zero IO.
	sunk = nil
	m0 = eng.Metrics()
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if _, err := eng.Query(ctx, q); !errors.Is(err, aggview.ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	d = eng.Metrics().Sub(m0)
	if d.Queries != 1 || d.Failures != 1 {
		t.Errorf("cancel window: queries=%d failures=%d, want 1/1", d.Queries, d.Failures)
	}
	if len(sunk) != 1 || sunk[0].Err != "canceled" {
		t.Fatalf("cancel rollup: %+v", sunk)
	}
	if sunk[0].Reads+sunk[0].Writes != 0 {
		t.Errorf("expired deadline charged IO: %+v", sunk[0])
	}

	// The engine keeps serving, and successes go back to Err == "".
	sunk = nil
	if _, err := eng.Query(context.Background(), `select count(*) from part`); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 1 || sunk[0].Err != "" {
		t.Fatalf("post-failure rollup: %+v", sunk)
	}
}

// TestQueryTotalCoversWholeCall: QueryMetrics.Total is the whole call on
// every door — the cache-key, parse and cache steps included, which belong
// to neither phase — so it is never less than Optimize + Execute, and on an
// ad-hoc miss of a statement that takes long to parse it is visibly more. A
// cache hit reports no optimize time at all: it bound and searched nothing.
func TestQueryTotalCoversWholeCall(t *testing.T) {
	eng := aggview.Open(aggview.Config{})
	eng.MustExec(`create table t (a int, b int)`)
	eng.MustExec(`insert into t values (1, 10), (2, 20), (3, 30)`)
	var sunk []aggview.QueryMetrics
	eng.SetMetricsSink(func(qm aggview.QueryMetrics) { sunk = append(sunk, qm) })
	ctx := context.Background()

	// 1 500 disjuncts: microseconds to lex and parse, none of them a phase.
	terms := make([]string, 1500)
	for i := range terms {
		terms[i] = fmt.Sprintf("a = %d", i)
	}
	long := "select b from t where " + strings.Join(terms, " or ")

	m0 := eng.Metrics()
	stmt, err := eng.Prepare(`select b from t where a < ?`)
	if err != nil {
		t.Fatal(err)
	}
	doors := []struct {
		name   string
		status string
		run    func() error
	}{
		{"Query miss", "miss", func() error { _, err := eng.Query(ctx, long); return err }},
		{"Query hit", "hit", func() error { _, err := eng.Query(ctx, long); return err }},
		{"Exec select", "hit", func() error { _, err := eng.ExecContext(ctx, long); return err }},
		{"Stmt", "hit", func() error { _, err := stmt.QueryContext(ctx, 3); return err }},
		{"QueryRows", "miss", func() error {
			rows, err := eng.QueryRows(ctx, `select a from t`)
			if err != nil {
				return err
			}
			for rows.Next() {
			}
			return rows.Close()
		}},
		{"Txn.Query", "bypass", func() error {
			tx, err := eng.Begin(ctx)
			if err != nil {
				return err
			}
			defer tx.Rollback()
			_, err = tx.Query(ctx, long)
			return err
		}},
		{"EXPLAIN ANALYZE", "bypass", func() error { _, err := eng.ExplainAnalyze(ctx, long); return err }},
	}
	for _, d := range doors {
		sunk = nil
		if err := d.run(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if len(sunk) != 1 {
			t.Fatalf("%s: %d rollups, want 1", d.name, len(sunk))
		}
		qm := sunk[0]
		if qm.PlanCache != d.status {
			t.Errorf("%s: plan cache %q, want %q", d.name, qm.PlanCache, d.status)
		}
		if qm.Total <= 0 || qm.Execute <= 0 || qm.Total < qm.Optimize+qm.Execute {
			t.Errorf("%s: total %v, optimize %v, execute %v; want total >= optimize + execute > 0",
				d.name, qm.Total, qm.Optimize, qm.Execute)
		}
		switch d.status {
		case "hit":
			if qm.Optimize != 0 {
				t.Errorf("%s: a cache hit reported %v of optimization", d.name, qm.Optimize)
			}
		case "miss", "bypass":
			if qm.Optimize <= 0 {
				t.Errorf("%s: a compilation reported no optimize time", d.name)
			}
			if qm.Statement == long && qm.Total <= qm.Optimize+qm.Execute {
				t.Errorf("%s: total %v does not exceed optimize %v + execute %v: the parse is in no metric",
					d.name, qm.Total, qm.Optimize, qm.Execute)
			}
		}
	}
	if d := eng.Metrics().Sub(m0); d.Queries != int64(len(doors)) || d.QueryTime < d.OptimizeTime+d.ExecuteTime {
		t.Errorf("window: %d queries, query time %v, optimize %v, execute %v; want %d and query >= optimize + execute",
			d.Queries, d.QueryTime, d.OptimizeTime, d.ExecuteTime, len(doors))
	}
}

// TestSearchTracePopulated: EXPLAIN paths carry the optimizer's decision
// log — per-level enumeration counts and, in Full mode on a view query,
// pull-up consideration events.
func TestSearchTracePopulated(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 16})
	info, err := eng.Explain(context.Background(), obsSuite[0], aggview.WithMode(aggview.Full))
	if err != nil {
		t.Fatal(err)
	}
	if info.Trace == nil {
		t.Fatal("Explain returned no search trace")
	}
	if len(info.Trace.Levels()) == 0 {
		t.Errorf("trace has no per-level enumeration stats")
	}
	var sawPullUp bool
	for _, ev := range info.Trace.Events {
		if ev.Kind == "pull-up" {
			sawPullUp = true
		}
	}
	if !sawPullUp {
		t.Errorf("Full-mode trace on a view query recorded no pull-up events:\n%s", info.Trace)
	}
	if info.Trace.String() == "" {
		t.Errorf("trace renders empty")
	}

	// The plain query path skips tracing (it is not free).
	res, err := eng.Query(context.Background(), obsSuite[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Trace != nil {
		t.Errorf("normal query path should not carry a trace")
	}
}
