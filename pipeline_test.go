package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aggview"
)

// doorRun is what one run through one door reports: the answer, the page
// IO, the per-operator attribution (timings dropped), and the plan's cache
// provenance.
type doorRun struct {
	rows  string // order-insensitive fingerprint; "" when the door renders a report instead
	nrows int64
	io    aggview.IOStats
	ops   []string
	cache string
}

func opLines(ops []aggview.OpMetrics) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = fmt.Sprintf("%s rows=%d reads=%d writes=%d hits=%d spill=%d/%d",
			op.Label, op.RowsOut, op.Reads, op.Writes, op.Hits, op.SpillReads, op.SpillWrites)
	}
	return out
}

func fromResult(res *aggview.Result, err error) (doorRun, error) {
	if err != nil {
		return doorRun{}, err
	}
	return doorRun{rows: rowsFingerprint(res), nrows: int64(res.Len()), io: res.IO,
		ops: opLines(res.Ops), cache: res.Plan.CacheStatus}, nil
}

// fromRows drains a streaming door by hand.
func fromRows(rows *aggview.Rows, err error) (doorRun, error) {
	if err != nil {
		return doorRun{}, err
	}
	res := &aggview.Result{}
	for rows.Next() {
		res.Rows = append(res.Rows, append([]any(nil), rows.Value()...))
	}
	if err := rows.Close(); err != nil {
		return doorRun{}, err
	}
	res.Plan, res.IO, res.Ops = rows.Plan(), rows.IO(), rows.Ops()
	return fromResult(res, nil)
}

// TestEveryDoorSameRun: every SELECT-shaped entry point is the same pipeline
// run. Each door answers the same query twice, cold, on an engine with a
// fresh plan cache, and must report identical rows, identical page IO and
// identical per-operator attribution to the reference door, deliver exactly
// one metrics rollup per run, and show the plan-cache provenance that door
// documents: the caching doors go miss→hit; a prepared statement compiled
// at Prepare, so both runs hit; a transaction reads unpublished state and
// EXPLAIN ANALYZE needs a real search, so both bypass.
func TestEveryDoorSameRun(t *testing.T) {
	base := newWarehouse(t, aggview.Config{PoolPages: 16})
	q := obsSuite[2]
	ctx := context.Background()

	var stmt *aggview.Stmt
	doors := []struct {
		name  string
		cache [2]string
		run   func(e *aggview.Engine) (doorRun, error)
	}{
		{"Query", [2]string{"miss", "hit"}, func(e *aggview.Engine) (doorRun, error) {
			return fromResult(e.Query(ctx, q))
		}},
		{"QueryRows", [2]string{"miss", "hit"}, func(e *aggview.Engine) (doorRun, error) {
			return fromRows(e.QueryRows(ctx, q))
		}},
		{"Stmt.QueryContext", [2]string{"hit", "hit"}, func(e *aggview.Engine) (doorRun, error) {
			return fromResult(stmt.QueryContext(ctx))
		}},
		{"Stmt.QueryRows", [2]string{"hit", "hit"}, func(e *aggview.Engine) (doorRun, error) {
			return fromRows(stmt.QueryRows(ctx))
		}},
		{"Txn.Query", [2]string{"bypass", "bypass"}, func(e *aggview.Engine) (doorRun, error) {
			tx, err := e.Begin(ctx)
			if err != nil {
				return doorRun{}, err
			}
			defer tx.Rollback()
			return fromResult(tx.Query(ctx, q))
		}},
		{"Exec(select)", [2]string{"miss", "hit"}, func(e *aggview.Engine) (doorRun, error) {
			return fromResult(e.Exec(q))
		}},
		{"Exec(explain analyze)", [2]string{"bypass", "bypass"}, func(e *aggview.Engine) (doorRun, error) {
			res, err := e.Exec("explain analyze " + q)
			if err != nil {
				return doorRun{}, err
			}
			run := doorRun{io: res.IO, ops: opLines(res.Ops), cache: res.Plan.CacheStatus, nrows: -1}
			for _, r := range res.Rows {
				fmt.Sscanf(r[0].(string), "rows: %d", &run.nrows)
			}
			return run, nil
		}},
	}

	deliveries := 0
	base.SetMetricsSink(func(aggview.QueryMetrics) { deliveries++ })
	var ref doorRun
	for di, door := range doors {
		// A derived engine shares the data (and the metrics registry) but
		// starts with an empty plan cache.
		e := base.WithConfig(aggview.Config{})
		if strings.HasPrefix(door.name, "Stmt.") {
			var err error
			if stmt, err = e.Prepare(q); err != nil {
				t.Fatalf("%s: Prepare: %v", door.name, err)
			}
		}
		for i := 0; i < 2; i++ {
			e.DropCaches()
			deliveries = 0
			got, err := door.run(e)
			if err != nil {
				t.Fatalf("%s run %d: %v", door.name, i, err)
			}
			if deliveries != 1 {
				t.Errorf("%s run %d: %d metrics deliveries, want exactly 1", door.name, i, deliveries)
			}
			if got.cache != door.cache[i] {
				t.Errorf("%s run %d: CacheStatus %q, want %q", door.name, i, got.cache, door.cache[i])
			}
			if di == 0 && i == 0 {
				ref = got
				if ref.nrows == 0 || len(ref.ops) == 0 || ref.io.Reads == 0 {
					t.Fatalf("reference run is degenerate: %+v", ref)
				}
				continue
			}
			if got.nrows != ref.nrows || (got.rows != "" && got.rows != ref.rows) {
				t.Errorf("%s run %d: rows diverge from the reference door (%d vs %d rows)", door.name, i, got.nrows, ref.nrows)
			}
			if got.io != ref.io {
				t.Errorf("%s run %d: IO %+v, reference %+v", door.name, i, got.io, ref.io)
			}
			if strings.Join(got.ops, "\n") != strings.Join(ref.ops, "\n") {
				t.Errorf("%s run %d: per-operator metrics diverge:\n%s\nreference:\n%s",
					door.name, i, strings.Join(got.ops, "\n"), strings.Join(ref.ops, "\n"))
			}
		}
	}
}

// TestExplainRefusedOnDeadEngine (regression): Explain and SQL EXPLAIN run
// on the query pipeline, so a fail-stopped durable engine — whose memory may
// be ahead of its log — refuses to serve plans, exactly as it refuses
// queries.
func TestExplainRefusedOnDeadEngine(t *testing.T) {
	eng := openDurable(t, t.TempDir())
	defer eng.Close()
	eng.MustExec(`create table emp (eno int, dno int, sal float)`)
	eng.MustExec(`insert into emp values (1, 1, 100.0), (2, 2, 200.0)`)
	const q = `select dno, sum(sal) from emp group by dno`
	if _, err := eng.Explain(context.Background(), q); err != nil {
		t.Fatalf("live Explain: %v", err)
	}
	eng.InjectWALCrash(&aggview.CrashPlan{CrashAfterNWrites: 0, Torn: true})
	if _, err := eng.Exec(`insert into emp values (3, 3, 300.0)`); !errors.Is(err, aggview.ErrCrashed) {
		t.Fatalf("crash trigger err = %v", err)
	}
	if _, err := eng.Explain(context.Background(), q); !errors.Is(err, aggview.ErrEngineDead) {
		t.Errorf("dead-engine Explain err = %v, want ErrEngineDead", err)
	}
	if _, err := eng.Exec("explain " + q); !errors.Is(err, aggview.ErrEngineDead) {
		t.Errorf("dead-engine SQL EXPLAIN err = %v, want ErrEngineDead", err)
	}
	if _, err := eng.Prepare(q); !errors.Is(err, aggview.ErrEngineDead) {
		t.Errorf("dead-engine Prepare err = %v, want ErrEngineDead", err)
	}
}

// TestExplainHonoursOptimizerBudget (regression): Explain plans under the
// governor like Query does — a tripped Config.OptimizerBudget degrades down
// the ladder and the plan says so — and per-call options apply to it.
func TestExplainHonoursOptimizerBudget(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 16})
	q := obsSuite[2]
	ctx := context.Background()

	free, err := eng.Explain(ctx, q, aggview.WithMode(aggview.Full))
	if err != nil {
		t.Fatal(err)
	}
	if free.Degraded || free.Mode != aggview.Full {
		t.Fatalf("unbudgeted Explain degraded: mode %v", free.Mode)
	}

	tiny := eng.WithConfig(aggview.Config{OptimizerBudget: 2})
	for name, explain := range map[string]func() (*aggview.PlanInfo, error){
		"Explain":     func() (*aggview.PlanInfo, error) { return tiny.Explain(ctx, q, aggview.WithMode(aggview.Full)) },
		"SQL EXPLAIN": func() (*aggview.PlanInfo, error) { res, err := tiny.Exec("explain " + q); return planOf(res), err },
		"WithLimits": func() (*aggview.PlanInfo, error) {
			return eng.Explain(ctx, q, aggview.WithLimits(aggview.Limits{OptimizerBudget: 2}))
		},
	} {
		info, err := explain()
		if err != nil {
			t.Fatalf("%s: budgeted Explain should degrade, not fail: %v", name, err)
		}
		if !info.Degraded || info.Mode != aggview.Traditional || info.RequestedMode != aggview.Full {
			t.Errorf("%s: mode %v (requested %v, degraded %v), want Traditional degraded from Full",
				name, info.Mode, info.RequestedMode, info.Degraded)
		}
		if info.Search.Degradations != 2 {
			t.Errorf("%s: Degradations = %d, want 2", name, info.Search.Degradations)
		}
	}

	// An expired deadline stops Explain like it stops a query.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.Explain(dead, q); !errors.Is(err, aggview.ErrCanceled) {
		t.Errorf("cancelled Explain err = %v, want ErrCanceled", err)
	}
	// Explain publishes no query metrics: it ran nothing.
	m0 := eng.Metrics()
	if _, err := eng.Explain(ctx, q, aggview.WithoutViewRewrite()); err != nil {
		t.Fatal(err)
	}
	if d := eng.Metrics().Sub(m0); d.Queries != 0 {
		t.Errorf("Explain counted as %d executed queries", d.Queries)
	}
}

func planOf(res *aggview.Result) *aggview.PlanInfo {
	if res == nil {
		return nil
	}
	return res.Plan
}

// TestExecScriptLabelsEachStatement (regression): every SELECT of a script
// reports its own whitespace-normalized text to the metrics sink — not the
// whole script — and the script runs under the caller's context.
func TestExecScriptLabelsEachStatement(t *testing.T) {
	eng := aggview.Open(aggview.Config{})
	var seen []string
	eng.SetMetricsSink(func(m aggview.QueryMetrics) { seen = append(seen, m.Statement) })
	res, err := eng.ExecScript(context.Background(), `
		create table t (a int, b int);
		insert into t values (1, 10), (2, 20);
		select a
		  from t   where b > 10;
		explain analyze select b from t;
		select count(*) from t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != int64(2) {
		t.Fatalf("last statement's result = %v", res.Rows)
	}
	want := []string{"select a from t where b > 10", "explain analyze select b from t", "select count(*) from t"}
	if strings.Join(seen, "|") != strings.Join(want, "|") {
		t.Errorf("statement labels = %q, want %q", seen, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ExecScript(ctx, `select a from t; select b from t`); !errors.Is(err, aggview.ErrCanceled) {
		t.Errorf("cancelled script err = %v, want ErrCanceled", err)
	}
}
