package aggview_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"aggview"
)

// drainRows reads a streaming result to its end and returns the error that
// stopped it, whether the door failed to open or a later Next failed.
func drainRows(rows *aggview.Rows, err error) error {
	if err != nil {
		return err
	}
	for rows.Next() {
	}
	return rows.Close()
}

// TestDeadlineEveryDoor: the caller's context bounds a run's wall time on
// every SELECT door. An expired deadline fails the run with ErrCanceled,
// whether the door finds the plan cached (a page or row tick notices) or
// compiles it (an optimizer tick notices), and no spill file leaks.
func TestDeadlineEveryDoor(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	bg := context.Background()
	q := obsSuite[0]
	// Cache the ad-hoc plan, so Query, QueryRows and ExecScript hit it.
	if _, err := eng.Query(bg, q); err != nil {
		t.Fatal(err)
	}
	stmt, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithDeadline(bg, time.Unix(0, 0))
	defer cancel()

	doors := []struct {
		name string
		run  func() error
	}{
		{"Query", func() error { _, err := eng.Query(dead, q); return err }},
		{"QueryRows", func() error { return drainRows(eng.QueryRows(dead, q)) }},
		{"Explain", func() error { _, err := eng.Explain(dead, q); return err }},
		{"ExplainAnalyze", func() error { _, err := eng.ExplainAnalyze(dead, q); return err }},
		{"Stmt.QueryContext", func() error { _, err := stmt.QueryContext(dead); return err }},
		{"Stmt.QueryRows", func() error { return drainRows(stmt.QueryRows(dead)) }},
		{"Txn.Query", func() error {
			tx, err := eng.Begin(bg)
			if err != nil {
				return err
			}
			defer tx.Rollback()
			_, err = tx.Query(dead, q)
			return err
		}},
		{"ExecScript(select)", func() error { _, err := eng.ExecScript(dead, q); return err }},
	}
	for _, d := range doors {
		eng.DropCaches()
		if err := d.run(); !errors.Is(err, aggview.ErrCanceled) {
			t.Errorf("%s: err = %v, want wrapped ErrCanceled", d.name, err)
		}
		if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
			t.Fatalf("%s: leaked spill files %v", d.name, leaks)
		}
	}
	// The engine still answers on a live context.
	if _, err := eng.Query(bg, q); err != nil {
		t.Fatalf("engine unusable after expired deadlines: %v", err)
	}
}

// limitDoor is one door that takes WithLimits. run reports the plan and the
// rows the door returned; Explain returns none and reports -1.
type limitDoor struct {
	name string
	run  func(e *aggview.Engine, q string, opt aggview.QueryOption) (*aggview.PlanInfo, int64, error)
}

var limitDoors = []limitDoor{
	{"Query", func(e *aggview.Engine, q string, opt aggview.QueryOption) (*aggview.PlanInfo, int64, error) {
		res, err := e.Query(context.Background(), q, opt)
		if err != nil {
			return nil, 0, err
		}
		return res.Plan, int64(res.Len()), nil
	}},
	{"QueryRows", func(e *aggview.Engine, q string, opt aggview.QueryOption) (*aggview.PlanInfo, int64, error) {
		rows, err := e.QueryRows(context.Background(), q, opt)
		if err != nil {
			return nil, 0, err
		}
		n := int64(0)
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil {
			return nil, 0, err
		}
		return rows.Plan(), n, nil
	}},
	{"Explain", func(e *aggview.Engine, q string, opt aggview.QueryOption) (*aggview.PlanInfo, int64, error) {
		info, err := e.Explain(context.Background(), q, opt)
		return info, -1, err
	}},
	{"ExplainAnalyze", func(e *aggview.Engine, q string, opt aggview.QueryOption) (*aggview.PlanInfo, int64, error) {
		a, err := e.ExplainAnalyze(context.Background(), q, opt)
		if err != nil {
			return nil, 0, err
		}
		return a.Plan, a.Rows, nil
	}},
	{"Txn.Query", func(e *aggview.Engine, q string, opt aggview.QueryOption) (*aggview.PlanInfo, int64, error) {
		tx, err := e.Begin(context.Background())
		if err != nil {
			return nil, 0, err
		}
		defer tx.Rollback()
		res, err := tx.Query(context.Background(), q, opt)
		if err != nil {
			return nil, 0, err
		}
		return res.Plan, int64(res.Len()), nil
	}},
}

// TestLimitsEveryDoor: WithLimits is the one way to limit a run, and every
// door that takes it honours each field. MaxRowsOut and MaxIOPages trip
// their sentinels wherever the run executes (Explain executes nothing, so
// they never trip there); a tripped OptimizerBudget degrades the plan on
// every door without changing the answer; zero Limits limit nothing.
func TestLimitsEveryDoor(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	q := obsSuite[0]
	ref, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(ref.Len())
	if want <= 5 {
		t.Fatalf("reference query returned %d rows; the row cap would not bite", want)
	}

	for _, d := range limitDoors {
		answered := func(rows int64) bool { return rows == want || (d.name == "Explain" && rows == -1) }

		info, rows, err := d.run(eng, q, aggview.WithLimits(aggview.Limits{}))
		if err != nil || info.Degraded || !answered(rows) {
			t.Errorf("%s, zero Limits: %d rows, err %v; want %d rows, undegraded", d.name, rows, err, want)
		}

		for _, c := range []struct {
			lim  aggview.Limits
			want error
		}{
			{aggview.Limits{MaxRowsOut: 5}, aggview.ErrRowLimit},
			{aggview.Limits{MaxIOPages: 3}, aggview.ErrIOBudget},
		} {
			eng.DropCaches()
			_, _, err := d.run(eng, q, aggview.WithLimits(c.lim))
			if d.name == "Explain" {
				if err != nil {
					t.Errorf("%s, %+v: %v; Explain executes nothing", d.name, c.lim, err)
				}
			} else if !errors.Is(err, c.want) {
				t.Errorf("%s, %+v: err = %v, want wrapped %v", d.name, c.lim, err, c.want)
			}
			if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
				t.Fatalf("%s, %+v: leaked spill files %v", d.name, c.lim, leaks)
			}
		}

		// A fresh derived engine has no cached plan, so the run searches.
		info, rows, err = d.run(eng.WithConfig(aggview.Config{}), q,
			aggview.WithLimits(aggview.Limits{OptimizerBudget: 2}))
		if err != nil {
			t.Fatalf("%s, OptimizerBudget: %v; the ladder must degrade, not fail", d.name, err)
		}
		if !info.Degraded || info.Mode == aggview.Full || info.Search.Degradations == 0 || !answered(rows) {
			t.Errorf("%s, OptimizerBudget: mode %v, degraded %v (%d rungs), %d rows; want a degraded plan and %d rows",
				d.name, info.Mode, info.Degraded, info.Search.Degradations, rows, want)
		}
	}
}

// TestRowLimitWithOrderBy: MaxRowsOut counts the rows the plan's root hands
// out, so it means the same with or without ORDER BY: a LIMIT under the cap
// succeeds with its rows, and no LIMIT trips the cap.
func TestRowLimitWithOrderBy(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	capped := aggview.WithLimits(aggview.Limits{MaxRowsOut: 100})
	for _, q := range []string{
		`select l.orderkey, l.qty from lineitem l`,
		`select l.orderkey, l.qty from lineitem l order by qty desc`,
	} {
		res, err := eng.Query(context.Background(), q+" limit 10", capped)
		if err != nil || res.Len() != 10 {
			t.Errorf("%s limit 10 under MaxRowsOut 100: %v", q, err)
		}
		if _, err := eng.Query(context.Background(), q, capped); !errors.Is(err, aggview.ErrRowLimit) {
			t.Errorf("%s under MaxRowsOut 100: err = %v, want wrapped ErrRowLimit", q, err)
		}
		if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
			t.Fatalf("%s: leaked spill files %v", q, leaks)
		}
	}
}

// TestOptimizerBudgetOnCacheHit: a plan-cache hit runs no search, so an
// optimizer budget cannot trip on it — the run reports "hit" and the cached
// plan's mode, undegraded.
func TestOptimizerBudgetOnCacheHit(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	q := obsSuite[0]
	if _, err := eng.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	tiny := aggview.WithLimits(aggview.Limits{OptimizerBudget: 2})
	for _, d := range limitDoors[:2] { // Query, QueryRows: the caching doors
		info, _, err := d.run(eng, q, tiny)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if info.CacheStatus != "hit" || info.Degraded || info.Mode != aggview.Full {
			t.Errorf("%s: status %q, mode %v, degraded %v; want an undegraded Full hit",
				d.name, info.CacheStatus, info.Mode, info.Degraded)
		}
	}
}
