package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aggview"
)

// treeRun is what a prepared statement's run shows: its rows, every
// operator's metrics but time, and its page IO, from a materialized run
// with an emptied buffer pool; and from an EXPLAIN ANALYZE of the same
// arguments, its operator tree's metrics but time, page IO and the IO no
// operator frame held.
type treeRun struct {
	rows         [][]any
	ops          []aggview.OpMetrics
	io           aggview.IOStats
	analyzed     []aggview.OpMetrics
	analyzedIO   aggview.IOStats
	unattributed aggview.OpMetrics
	cache        [2]string
}

func untimed(ops []aggview.OpMetrics) []aggview.OpMetrics {
	out := make([]aggview.OpMetrics, len(ops))
	for i, op := range ops {
		op.OpenNS, op.NextNS, op.CloseNS = 0, 0, 0
		out[i] = op
	}
	return out
}

func runTree(t *testing.T, eng *aggview.Engine, stmt *aggview.Stmt, arg any) treeRun {
	t.Helper()
	ctx := context.Background()
	a, err := stmt.ExplainAnalyze(ctx, arg)
	if err != nil {
		t.Fatal(err)
	}
	var analyzed []aggview.OpMetrics
	var walk func(n *aggview.OpNode)
	walk = func(n *aggview.OpNode) {
		analyzed = append(analyzed, *n.Actual)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(a.Root)
	eng.DropCaches()
	res, err := stmt.QueryContext(ctx, arg)
	if err != nil {
		t.Fatal(err)
	}
	return treeRun{rows: res.Rows, ops: untimed(res.Ops), io: res.IO,
		analyzed: untimed(analyzed), analyzedIO: a.IO, unattributed: a.Unattributed,
		cache: [2]string{a.Plan.CacheStatus, res.Plan.CacheStatus}}
}

// interrupt runs the statement once in one of the ways a run can end
// early or fail, through the statement or as an ad-hoc query of its text,
// which finds the same cached plan; kind picks which.
func interrupt(t *testing.T, eng *aggview.Engine, stmt *aggview.Stmt, arg, other any, kind int) string {
	t.Helper()
	ctx := context.Background()
	drain := func(r *aggview.Rows, err error) error {
		if err != nil {
			return err
		}
		defer r.Close()
		for r.Next() {
		}
		return r.Err()
	}
	switch kind % 6 {
	case 0:
		r, err := stmt.QueryRows(ctx, arg)
		if err != nil {
			t.Fatal(err)
		}
		r.Next()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return "closed after one row"
	case 1:
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		r, err := stmt.QueryRows(cctx, arg)
		if err != nil {
			t.Fatal(err)
		}
		r.Next()
		cancel()
		if err := drain(r, nil); err != nil && !errors.Is(err, aggview.ErrCanceled) {
			t.Fatal(err)
		}
		return "was cancelled mid-stream"
	case 2:
		err := drain(eng.QueryRows(ctx, stmt.Text(), aggview.WithParams(arg), aggview.WithLimits(aggview.Limits{MaxRowsOut: 2})))
		if err != nil && !errors.Is(err, aggview.ErrRowLimit) {
			t.Fatal(err)
		}
		return "tripped its row limit"
	case 3:
		eng.InjectFault(aggview.FaultPlan{FailAt: 0})
		defer eng.ClearFault()
		if _, err := eng.Query(ctx, stmt.Text(), aggview.WithParams(arg), aggview.WithColdCache()); !errors.Is(err, aggview.ErrInjected) {
			t.Fatalf("injected fault: err = %v", err)
		}
		return "failed at its first page read"
	case 4:
		_, err := eng.Query(ctx, stmt.Text(), aggview.WithParams(arg), aggview.WithColdCache(),
			aggview.WithLimits(aggview.Limits{MaxIOPages: 2}))
		if !errors.Is(err, aggview.ErrIOBudget) {
			t.Fatalf("IO budget: err = %v", err)
		}
		return "ran out of its page budget"
	default:
		if _, err := stmt.QueryContext(ctx, other); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("ran with %v", other)
	}
}

// TestPreparedRunsReuseTheirTree runs prepared statements over and over
// with rotating arguments, each time after a run of the same cached plan
// that ended early or failed (interrupt). Each such run reuses the
// operator tree the plan's earlier runs left, and must show exactly what
// a freshly built tree shows — one compiled after an ANALYZE invalidated
// the plan: the same rows, the same per-operator metrics but time, the
// same page IO and no unattributed IO. The statements spill through a
// Grace hash join (the build side outgrows the 88-page pool at the low
// arguments only) and an overflowing hash aggregation, stop at a LIMIT
// above a sort, and run block nested loops over a 4-page pool, five inner
// passes. The VARCHARs an early run returned stay what they were.
func TestPreparedRunsReuseTheirTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two 24 000-lineitem warehouses")
	}
	big, small := warmExecEngineAt(t, 88), warmExecEngineAt(t, 4)
	var early [][]any
	var earlyCopy []string
	for _, st := range []struct {
		name  string
		eng   *aggview.Engine
		table string // an ANALYZE of it invalidates the plan
		sql   string
		args  []any
	}{
		{"grace-join", big, "lineitem", `select a.lineid, b.price from lineitem a, lineitem b where a.lineid = b.lineid and a.qty > ?`, []any{5, 40, 20}},
		{"aggregation-overflow", big, "lineitem", `select l.orderkey, l.partkey, count(*), sum(l.qty) from lineitem l where l.qty > ? group by l.orderkey, l.partkey`, []any{5, 40, 20}},
		{"sort-limit", big, "customer", `select c.segment, count(*) as n, max(c.nation) from customer c where c.custkey < ? group by c.segment order by 2 desc, 1 limit 3`, []any{300, 450, 150}},
		{"block-nl", small, "customer", `select c.nation, count(*) from part p, customer c where p.partkey < c.custkey and p.brand < ? group by c.nation`, []any{10, 3, 20}},
	} {
		t.Run(st.name, func(t *testing.T) {
			stmt, err := st.eng.Prepare(st.sql)
			if err != nil {
				t.Fatal(err)
			}
			for round := range 9 {
				arg, other := st.args[round%len(st.args)], st.args[(round+1)%len(st.args)]
				st.eng.MustExec("analyze " + st.table)
				want := runTree(t, st.eng, stmt, arg)
				if want.cache == [2]string{"hit", "hit"} {
					t.Fatalf("round %d: the reference runs found the plan cached: %v", round, want.cache)
				}
				how := interrupt(t, st.eng, stmt, arg, other, round)
				got := runTree(t, st.eng, stmt, arg)
				if got.cache != [2]string{"hit", "hit"} {
					t.Fatalf("round %d: the runs after one that %s were %v, not cache hits", round, how, got.cache)
				}
				want.cache = got.cache
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d (argument %v), after a run that %s:\n got %d rows, ops %+v, IO %+v / %+v, unattributed %+v\nwant %d rows, ops %+v, IO %+v / %+v, unattributed %+v",
						round, arg, how, len(got.rows), got.ops, got.io, got.analyzedIO, got.unattributed,
						len(want.rows), want.ops, want.io, want.analyzedIO, want.unattributed)
				}
				if got.unattributed != (aggview.OpMetrics{Label: got.unattributed.Label}) {
					t.Fatalf("round %d: IO outside every operator: %+v", round, got.unattributed)
				}
				if st.name == "sort-limit" && early == nil {
					early = got.rows
					for _, row := range early {
						earlyCopy = append(earlyCopy, strings.Clone(row[0].(string)))
					}
				}
			}
			if files := st.eng.LiveTempFiles(); len(files) > 0 {
				t.Fatalf("spill files left behind: %v", files)
			}
		})
	}
	for i, row := range early {
		if row[0].(string) != earlyCopy[i] {
			t.Errorf("row %d's VARCHAR changed from %q to %q under later runs", i, earlyCopy[i], row[0])
		}
	}
	if len(early) == 0 {
		t.Error("no VARCHAR was returned to check")
	}
}

// TestPreparedRunsAcrossGoroutines runs one prepared statement, a Grace
// join at the low argument, from several goroutines at once with rotating
// arguments, each answer checked against the statement's answer for the
// same argument run alone.
func TestPreparedRunsAcrossGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 24 000-lineitem warehouse")
	}
	eng := warmExecEngineAt(t, 88)
	stmt, err := eng.Prepare(`select a.lineid, b.price from lineitem a, lineitem b where a.lineid = b.lineid and a.qty > ?`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	args := []any{5, 40, 20}
	want := make([][][]any, len(args))
	for i, a := range args {
		res, err := stmt.QueryContext(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 5 {
				k := (g + i) % len(args)
				res, err := stmt.QueryContext(ctx, args[k])
				if err == nil && !reflect.DeepEqual(res.Rows, want[k]) {
					err = fmt.Errorf("goroutine %d, argument %v: %d rows differ from the %d run alone", g, args[k], len(res.Rows), len(want[k]))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if files := eng.LiveTempFiles(); len(files) > 0 {
		t.Fatalf("spill files left behind: %v", files)
	}
}
