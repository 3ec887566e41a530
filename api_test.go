package aggview

import (
	"context"
	"errors"
	"testing"
)

// setupAPIEngine builds a small emp/dept instance for the options tests.
func setupAPIEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := Open(cfg)
	spec := DefaultEmpDept()
	spec.Employees = 3000
	spec.Departments = 40
	if err := e.LoadEmpDept(spec); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestQueryOptionsMode: WithMode runs the requested optimizer mode and all
// modes agree on the answer.
func TestQueryOptionsMode(t *testing.T) {
	e := setupAPIEngine(t, Config{PoolPages: 32})
	ctx := context.Background()
	q := `select e.dno as dno, avg(e.sal) from emp e, dept d
	      where e.dno = d.dno and d.budget > 50 group by e.dno order by dno`

	base, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []OptimizerMode{Traditional, PushDown, Full} {
		res, err := e.Query(ctx, q, WithMode(mode), WithColdCache())
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Plan.RequestedMode != mode {
			t.Errorf("%v: RequestedMode = %v", mode, res.Plan.RequestedMode)
		}
		if res.String() != base.String() {
			t.Errorf("%v: result diverges from default mode", mode)
		}
		// Cold cache: the plan's pages cannot all be pool hits.
		if res.IO.Reads == 0 {
			t.Errorf("%v: cold run performed no reads (IO %+v)", mode, res.IO)
		}
	}
}

// TestQueryOptionsParams: ad-hoc statements bind `?` placeholders through
// WithParams, with the same coercions as prepared statements.
func TestQueryOptionsParams(t *testing.T) {
	e := setupAPIEngine(t, Config{PoolPages: 32})
	ctx := context.Background()

	res, err := e.Query(ctx, `select count(*) from emp where age < ?`, WithParams(30))
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(ctx, `select count(*) from emp where age < 30`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != want.Rows[0][0] {
		t.Errorf("WithParams(30) = %v, literal = %v", res.Rows[0][0], want.Rows[0][0])
	}

	// Count mismatches and unsupported types surface as errors, not panics.
	if _, err := e.Query(ctx, `select count(*) from emp where age < ?`); err == nil {
		t.Error("missing parameter not rejected")
	}
	if _, err := e.Query(ctx, `select count(*) from emp`, WithParams(1)); err == nil {
		t.Error("surplus parameter not rejected")
	}
	if _, err := e.Query(ctx, `select count(*) from emp where age < ?`, WithParams(struct{}{})); err == nil {
		t.Error("unsupported parameter type not rejected")
	}
}

// TestQueryOptionsLimits: WithLimits overrides the engine config per query
// — zero fields inherit, positives override, negatives disable.
func TestQueryOptionsLimits(t *testing.T) {
	e := setupAPIEngine(t, Config{PoolPages: 32, MaxRowsOut: 5})
	ctx := context.Background()
	q := `select eno from emp where age < 60`

	// The engine-level limit applies by default.
	if _, err := e.Query(ctx, q); !errors.Is(err, ErrRowLimit) {
		t.Fatalf("config MaxRowsOut: err = %v, want ErrRowLimit", err)
	}
	// A negative field disables the engine limit for this run only.
	res, err := e.Query(ctx, q, WithLimits(Limits{MaxRowsOut: -1}))
	if err != nil {
		t.Fatalf("disabled limit: %v", err)
	}
	if res.Len() <= 5 {
		t.Fatalf("disabled limit returned %d rows", res.Len())
	}
	// A positive field overrides; zero fields inherit (MaxRowsOut stays 5).
	if _, err := e.Query(ctx, q, WithLimits(Limits{MaxIOPages: 1 << 20})); !errors.Is(err, ErrRowLimit) {
		t.Errorf("inherited MaxRowsOut: err = %v, want ErrRowLimit", err)
	}
	if _, err := e.Query(ctx, q, WithColdCache(),
		WithLimits(Limits{MaxRowsOut: 1 << 20, MaxIOPages: 1})); !errors.Is(err, ErrIOBudget) {
		t.Errorf("override MaxIOPages: err = %v, want ErrIOBudget", err)
	}
	// The engine config is untouched after per-query overrides.
	if _, err := e.Query(ctx, q); !errors.Is(err, ErrRowLimit) {
		t.Errorf("config limit lost after overrides: err = %v", err)
	}
}

// TestQueryRowsOptions: the streaming surface takes the same options.
func TestQueryRowsOptions(t *testing.T) {
	e := setupAPIEngine(t, Config{PoolPages: 32})
	ctx := context.Background()
	rows, err := e.QueryRows(ctx, `select eno from emp where age < ?`,
		WithParams(25), WithMode(Traditional))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if rows.Plan().RequestedMode != Traditional {
		t.Errorf("RequestedMode = %v", rows.Plan().RequestedMode)
	}
	want, err := e.Query(ctx, `select count(*) from emp where age < 25`)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != want.Rows[0][0].(int64) {
		t.Errorf("streamed %d rows, count says %v", n, want.Rows[0][0])
	}
}

// TestExplainAnalyzeOptions: EXPLAIN ANALYZE accepts mode and params.
func TestExplainAnalyzeOptions(t *testing.T) {
	e := setupAPIEngine(t, Config{PoolPages: 32})
	a, err := e.ExplainAnalyze(context.Background(),
		`select dno, avg(sal) from emp where age < ? group by dno`,
		WithParams(40), WithMode(PushDown))
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.RequestedMode != PushDown {
		t.Errorf("RequestedMode = %v", a.Plan.RequestedMode)
	}
	if a.Rows == 0 {
		t.Error("analyze produced no rows")
	}
}

// TestBatchSizeConfigEquivalence: Config.BatchSize must not change results
// — size 1 (the row-at-a-time reference) agrees with the default on a
// spilling aggregate query. The full differential harness is
// TestConcurrentBatchDifferential.
func TestBatchSizeConfigEquivalence(t *testing.T) {
	q := `select e.dno as dno, avg(e.sal), count(*) from emp e, dept d
	      where e.dno = d.dno group by e.dno order by dno`
	run := func(batch int) string {
		e := setupAPIEngine(t, Config{PoolPages: 16, BatchSize: batch})
		res, err := e.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	if got, want := run(1), run(0); got != want {
		t.Errorf("BatchSize 1 diverges from default:\n%s\nvs\n%s", got, want)
	}
}
