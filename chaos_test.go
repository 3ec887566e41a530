package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"aggview"
)

// newWarehouse builds a small TPC-D-like engine with named aggregate views,
// sized so that joins and aggregations spill under the tiny buffer pool.
func newWarehouse(t *testing.T, cfg aggview.Config) *aggview.Engine {
	t.Helper()
	eng := aggview.Open(cfg)
	spec := aggview.DefaultTPCD()
	spec.Lineitems = 1500
	if err := eng.LoadTPCD(spec); err != nil {
		t.Fatal(err)
	}
	eng.MustExec(`create view part_qty (partkey, aqty) as
		select partkey, avg(qty) from lineitem group by partkey`)
	eng.MustExec(`create view order_value (orderkey, value) as
		select orderkey, sum(price) from lineitem group by orderkey`)
	return eng
}

// rowsFingerprint renders a result as an order-insensitive multiset key so
// runs can be compared regardless of row order.
func rowsFingerprint(res *aggview.Result) string {
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = fmt.Sprint(r...)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestChaosSweepWarehouse is the systematic fault sweep of the tentpole: for
// each query in the suite it measures the charged page IOs of a clean cold
// run, then re-runs the query once per IO index with a deterministic fault
// injected at exactly that IO. Every injected run must fail with an error
// wrapping ErrInjected (never a recovered panic), leak zero spill files, and
// leave the engine able to answer a follow-up query; after the sweep the
// original query must still produce the clean run's answer.
func TestChaosSweepWarehouse(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})

	queries := []string{
		// Aggregate view joined with base tables: scans + a spilling join.
		`select p.brand, l.qty from lineitem l, part p, part_qty v
		 where l.partkey = p.partkey and v.partkey = p.partkey
		   and p.brand < 5 and l.qty < v.aqty`,
		// Two views at once: group-by spills feeding a multi-way join.
		`select v.aqty, o.value from part_qty v, order_value o, lineitem l
		 where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 45`,
		// Grouped top block over a view output.
		`select p.brand, max(v.aqty) from part p, part_qty v
		 where v.partkey = p.partkey group by p.brand having max(v.aqty) > 10`,
		// Plain grouped join with presentation clauses.
		`select c.nation, count(*) as n from customer c, orders o
		 where o.custkey = c.custkey group by c.nation order by n desc limit 3`,
	}
	const followUp = `select count(*) from part`

	cleanFollow, err := eng.Query(context.Background(), followUp)
	if err != nil {
		t.Fatal(err)
	}
	wantFollow := rowsFingerprint(cleanFollow)

	for qi, q := range queries {
		// Clean cold run with the fault counter armed but no trigger: its
		// charged-IO count is the sweep bound, and each sweep run repeats
		// the identical IO sequence because the cache is dropped each time.
		eng.ClearFault()
		eng.DropCaches()
		eng.InjectFault(aggview.FaultPlan{FailAt: -1})
		clean, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d clean run: %v", qi, err)
		}
		ios := eng.FaultIOCount()
		eng.ClearFault()
		if ios == 0 {
			t.Fatalf("query %d charged no IO; the sweep would be vacuous", qi)
		}
		want := rowsFingerprint(clean)

		step := int64(1)
		if testing.Short() {
			step = ios/16 + 1 // short sweep: ~16 fault points per query
		}
		for i := int64(0); i < ios; i += step {
			eng.DropCaches()
			eng.InjectFault(aggview.FaultPlan{FailAt: i})
			_, err := eng.Query(context.Background(), q)
			if err == nil {
				t.Fatalf("query %d FailAt=%d: expected an error", qi, i)
			}
			if !errors.Is(err, aggview.ErrInjected) {
				t.Fatalf("query %d FailAt=%d: err = %v, want wrapped ErrInjected", qi, i, err)
			}
			if errors.Is(err, aggview.ErrInternal) {
				t.Fatalf("query %d FailAt=%d: fault surfaced as a recovered panic: %v", qi, i, err)
			}
			if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
				t.Fatalf("query %d FailAt=%d: leaked spill files %v", qi, i, leaks)
			}
			// The engine must keep answering after the failure.
			eng.ClearFault()
			follow, err := eng.Query(context.Background(), followUp)
			if err != nil {
				t.Fatalf("query %d FailAt=%d: follow-up failed: %v", qi, i, err)
			}
			if rowsFingerprint(follow) != wantFollow {
				t.Fatalf("query %d FailAt=%d: follow-up answer changed", qi, i)
			}
		}

		// Full recovery: the swept query itself still gives the clean answer.
		eng.DropCaches()
		again, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d after sweep: %v", qi, err)
		}
		if rowsFingerprint(again) != want {
			t.Fatalf("query %d: answer changed after fault sweep", qi)
		}
		t.Logf("query %d: swept %d IO indexes (step %d)", qi, (ios+step-1)/step, step)
	}
}

// TestChaosSweepPreparedStmt (satellite of the durability PR): the fault
// sweep driven through Stmt.QueryContext instead of ad-hoc Query, so every
// cached-plan execution path — parameter binding, plan-cache lookup, and
// the shared compiled plan — sees a fault at every charged IO index. Each
// injected run must fail with a clean error wrapping ErrInjected (never a
// recovered panic), leak zero spill files, and leave both the Stmt and the
// engine fully usable.
func TestChaosSweepPreparedStmt(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	ctx := context.Background()

	st, err := eng.Prepare(`select p.brand, l.qty from lineitem l, part p, part_qty v
		 where l.partkey = p.partkey and v.partkey = p.partkey
		   and p.brand < ? and l.qty < v.aqty`)
	if err != nil {
		t.Fatal(err)
	}
	follow, err := eng.Prepare(`select count(*) from part`)
	if err != nil {
		t.Fatal(err)
	}
	cleanFollow, err := follow.QueryContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantFollow := rowsFingerprint(cleanFollow)

	// Clean cold run sizes the sweep. DropCaches clears data pages but the
	// compiled plan survives in the plan cache, so every sweep run exercises
	// the cached-plan path with an identical IO sequence.
	eng.ClearFault()
	eng.DropCaches()
	eng.InjectFault(aggview.FaultPlan{FailAt: -1})
	clean, err := st.QueryContext(ctx, int64(5))
	if err != nil {
		t.Fatal(err)
	}
	ios := eng.FaultIOCount()
	eng.ClearFault()
	if ios == 0 {
		t.Fatal("prepared query charged no IO; the sweep would be vacuous")
	}
	want := rowsFingerprint(clean)
	if clean.Plan.CacheStatus != "hit" {
		t.Fatalf("prepared clean run cache status %q, want hit", clean.Plan.CacheStatus)
	}

	step := int64(1)
	if testing.Short() {
		step = ios/16 + 1
	}
	for i := int64(0); i < ios; i += step {
		eng.DropCaches()
		eng.InjectFault(aggview.FaultPlan{FailAt: i})
		_, err := st.QueryContext(ctx, int64(5))
		if err == nil {
			t.Fatalf("FailAt=%d: expected an error", i)
		}
		if !errors.Is(err, aggview.ErrInjected) {
			t.Fatalf("FailAt=%d: err = %v, want wrapped ErrInjected", i, err)
		}
		if errors.Is(err, aggview.ErrInternal) {
			t.Fatalf("FailAt=%d: fault surfaced as a recovered panic: %v", i, err)
		}
		if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
			t.Fatalf("FailAt=%d: leaked spill files %v", i, leaks)
		}
		// Both the failed Stmt and an independent prepared query keep working.
		eng.ClearFault()
		fres, err := follow.QueryContext(ctx)
		if err != nil {
			t.Fatalf("FailAt=%d: follow-up failed: %v", i, err)
		}
		if rowsFingerprint(fres) != wantFollow {
			t.Fatalf("FailAt=%d: follow-up answer changed", i)
		}
	}

	// The swept Stmt still produces the clean answer, still from cache, and
	// different parameter values still work.
	eng.DropCaches()
	again, err := st.QueryContext(ctx, int64(5))
	if err != nil {
		t.Fatalf("after sweep: %v", err)
	}
	if rowsFingerprint(again) != want {
		t.Fatal("prepared answer changed after fault sweep")
	}
	if again.Plan.CacheStatus != "hit" {
		t.Fatalf("post-sweep cache status %q, want hit", again.Plan.CacheStatus)
	}
	wide, err := st.QueryContext(ctx, int64(1<<30))
	if err != nil {
		t.Fatalf("re-parameterized run: %v", err)
	}
	if wide.Len() < again.Len() {
		t.Fatalf("brand < huge returned fewer rows (%d) than brand < 5 (%d)", wide.Len(), again.Len())
	}
	t.Logf("swept %d IO indexes (step %d)", (ios+step-1)/step, step)
}

// TestChaosProbabilisticStorm runs the suite under seeded random faults and
// checks the same invariants: wrapped errors, no leaks, eventual recovery.
func TestChaosProbabilisticStorm(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	q := `select v.aqty, o.value from part_qty v, order_value o, lineitem l
	      where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 45`

	clean, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsFingerprint(clean)

	eng.InjectFault(aggview.FaultPlan{FailAt: -1, Prob: 0.02, Seed: 7})
	var failures int
	for i := 0; i < 20; i++ {
		eng.DropCaches()
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			if !errors.Is(err, aggview.ErrInjected) {
				t.Fatalf("round %d: err = %v, want ErrInjected", i, err)
			}
			failures++
		} else if rowsFingerprint(res) != want {
			t.Fatalf("round %d: surviving run returned a different answer", i)
		}
		if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
			t.Fatalf("round %d: leaked spill files %v", i, leaks)
		}
	}
	if failures == 0 {
		t.Fatalf("storm never fired; raise Prob or rounds")
	}
	eng.ClearFault()
	if _, err := eng.Query(context.Background(), q); err != nil {
		t.Fatalf("engine unusable after storm: %v", err)
	}
}

// TestQueryContextExpiredDeadline: a context whose deadline already passed
// aborts the query at the first governor poll with ErrCanceled, before any
// page IO is charged.
func TestQueryContextExpiredDeadline(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	q := `select v.aqty, o.value from part_qty v, order_value o, lineitem l
	      where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 45`

	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	eng.DropCaches()
	before := eng.IOStats()
	_, err := eng.Query(ctx, q)
	if !errors.Is(err, aggview.ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if d := eng.IOStats().Sub(before); d.Total() != 0 {
		t.Fatalf("expired deadline still performed %d page IOs", d.Total())
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("leaked spill files %v", leaks)
	}
}

// TestQueryContextCancelMidSpill cancels a running spilling join from
// another goroutine once page IO is observed; the query must stop with
// ErrCanceled and drop every spill file.
func TestQueryContextCancelMidSpill(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	// A blow-up join (every lineitem pair on qty) that would take far
	// longer than the test: cancellation is the only way it ends.
	q := `select l1.orderkey, l2.orderkey from lineitem l1, lineitem l2
	      where l1.qty = l2.qty and l1.price < l2.price`

	eng.DropCaches()
	before := eng.IOStats()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Wait for the executor to make progress, then pull the plug.
		for eng.IOStats().Sub(before).Total() < 4 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err := eng.Query(ctx, q)
	if !errors.Is(err, aggview.ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("canceled query leaked spill files %v", leaks)
	}
	// The engine is still healthy.
	if _, err := eng.Query(context.Background(), `select count(*) from lineitem`); err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
}

// TestConfigTimeout: Config.Timeout behaves like a per-query deadline.
func TestConfigTimeout(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	limited := eng.WithConfig(aggview.Config{Timeout: time.Nanosecond})
	_, err := limited.Query(context.Background(), `select count(*) from lineitem`)
	if !errors.Is(err, aggview.ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	// The shared engine without the timeout still works.
	if _, err := eng.Query(context.Background(), `select count(*) from lineitem`); err != nil {
		t.Fatal(err)
	}
}

// TestMaxRowsOut: the executor stops materializing at the row cap.
func TestMaxRowsOut(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	limited := eng.WithConfig(aggview.Config{MaxRowsOut: 5})
	_, err := limited.Query(context.Background(), `select l.orderkey from lineitem l`)
	if !errors.Is(err, aggview.ErrRowLimit) {
		t.Fatalf("err = %v, want wrapped ErrRowLimit", err)
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("leaked spill files %v", leaks)
	}
	// Under the cap the same engine answers normally.
	res, err := limited.Query(context.Background(), `select count(*) from customer`)
	if err != nil {
		t.Fatalf("query under the cap: %v", err)
	}
	if res.Len() != 1 {
		t.Fatalf("count(*) returned %d rows", res.Len())
	}
}

// TestMaxIOPages: the page budget trips mid-execution with ErrIOBudget and
// leaks nothing.
func TestMaxIOPages(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	limited := eng.WithConfig(aggview.Config{MaxIOPages: 3})
	limited.DropCaches()
	_, err := limited.Query(context.Background(), `select v.aqty, o.value from part_qty v, order_value o, lineitem l
	      where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 45`)
	if !errors.Is(err, aggview.ErrIOBudget) {
		t.Fatalf("err = %v, want wrapped ErrIOBudget", err)
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("leaked spill files %v", leaks)
	}
	// A budget generous enough for the query succeeds.
	roomy := eng.WithConfig(aggview.Config{MaxIOPages: 1 << 20})
	roomy.DropCaches()
	if _, err := roomy.Query(context.Background(), `select count(*) from lineitem`); err != nil {
		t.Fatalf("roomy budget: %v", err)
	}
}

// TestOptimizerBudgetDegradationLadder: a tiny search budget in Full mode
// must not fail the query — the engine walks Full → PushDown → Traditional,
// reports the fallback in PlanInfo, and still returns the right answer.
func TestOptimizerBudgetDegradationLadder(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 16})
	q := `select p.brand, max(v.aqty) from part p, part_qty v
	      where v.partkey = p.partkey group by p.brand having max(v.aqty) > 10`

	// Reference answer from an ungoverned engine.
	clean, err := eng.Query(context.Background(), q, aggview.WithMode(aggview.Full), aggview.WithColdCache())
	if err != nil {
		t.Fatal(err)
	}
	want := rowsFingerprint(clean)

	tiny := eng.WithConfig(aggview.Config{OptimizerBudget: 2})
	res, err := tiny.Query(context.Background(), q, aggview.WithMode(aggview.Full), aggview.WithColdCache())
	if err != nil {
		t.Fatalf("budgeted Full query should degrade, not fail: %v", err)
	}
	info := res.Plan
	if !info.Degraded {
		t.Fatalf("PlanInfo.Degraded = false with OptimizerBudget=2")
	}
	if info.RequestedMode != aggview.Full {
		t.Fatalf("RequestedMode = %v, want Full", info.RequestedMode)
	}
	if info.Mode == aggview.Full {
		t.Fatalf("Mode = Full; the ladder should have fallen back")
	}
	if info.Search.Degradations == 0 {
		t.Fatalf("SearchStats.Degradations = 0, want >0")
	}
	if got := rowsFingerprint(res); got != want {
		t.Fatalf("degraded plan changed the answer:\n got: %q\nwant: %q", got, want)
	}
	// ErrOptimizerBudget must never leak to the caller through the ladder.
	if errors.Is(err, aggview.ErrOptimizerBudget) {
		t.Fatalf("ErrOptimizerBudget escaped the ladder")
	}

	// The same engine with an adequate budget does not degrade.
	roomy := eng.WithConfig(aggview.Config{OptimizerBudget: 1 << 20})
	rres, err := roomy.Query(context.Background(), q, aggview.WithMode(aggview.Full), aggview.WithColdCache())
	if err != nil {
		t.Fatal(err)
	}
	info = rres.Plan
	if info.Degraded || info.Mode != aggview.Full || info.Search.Degradations != 0 {
		t.Fatalf("roomy budget degraded: %+v", info)
	}

	// The plain Query path degrades too (Config.Mode defaults to Full).
	if _, err := tiny.Query(context.Background(), q); err != nil {
		t.Fatalf("Query under tiny budget: %v", err)
	}
}

// panicAcc is an accumulator that blows up on its first input, standing in
// for a buggy user extension.
type panicAcc struct{}

func (panicAcc) Add(aggview.Value)     { panic("user aggregate exploded") }
func (panicAcc) Result() aggview.Value { return aggview.NullValue() }

// TestPanicRecoveryAtEngineBoundary: a panic inside query execution (here a
// user-defined aggregate) surfaces as an error wrapping ErrInternal with the
// statement text, and the engine keeps serving queries.
func TestPanicRecoveryAtEngineBoundary(t *testing.T) {
	if err := aggview.RegisterAggregate(aggview.UserAggSpec{
		Name:       "boom",
		ResultKind: aggview.KindFloat,
		New:        func() aggview.Accumulator { return panicAcc{} },
	}); err != nil {
		t.Fatal(err)
	}
	eng := aggview.Open(aggview.Config{PoolPages: 8})
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = 500, 10
	if err := eng.LoadEmpDept(spec); err != nil {
		t.Fatal(err)
	}

	q := `select boom(e.sal) from emp e`
	_, err := eng.Query(context.Background(), q)
	if !errors.Is(err, aggview.ErrInternal) {
		t.Fatalf("err = %v, want wrapped ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "boom(e.sal)") {
		t.Fatalf("err %q should carry the statement text", err)
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("panicking query leaked spill files %v", leaks)
	}
	// The process survived and the engine still answers.
	res, err := eng.Query(context.Background(), `select count(*) from emp`)
	if err != nil || res.Len() != 1 {
		t.Fatalf("engine unusable after panic: %v %v", res, err)
	}
}
