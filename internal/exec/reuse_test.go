package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"aggview/internal/expr"
	"aggview/internal/govern"
	"aggview/internal/lplan"
	"aggview/internal/obs"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// reuseRun is what one run of a program shows: its rows in order, every
// operator's metrics without the wall times, the page IO no operator frame
// held, and the run's session IO.
type reuseRun struct {
	rows         []types.Row
	ops          []obs.OpStats
	unattributed obs.OpStats
	io           storage.IOStats
}

// runCold runs p from an empty buffer pool, so that its page IO depends on
// nothing an earlier run left, with every page access attributed as the
// engine attributes it.
func runCold(st *storage.Store, p *Program, params []types.Value, bs int) (reuseRun, error) {
	st.ForceDropCaches()
	var col obs.Collector
	se := st.NewSession(func(op storage.IOOp, temp bool) error {
		col.RecordIO(ioKinds[op], temp)
		return nil
	})
	res, err := New(st).WithSession(se).WithCollector(&col).WithParams(params).WithBatchSize(bs).RunProgram(p)
	if err != nil {
		return reuseRun{}, err
	}
	ops := slices.Clone(col.Ops())
	for i := range ops {
		ops[i].OpenNS, ops[i].NextNS, ops[i].CloseNS = 0, 0, 0
	}
	return reuseRun{rows: res.Rows, ops: ops, unattributed: col.Unattributed, io: se.Stats()}, nil
}

// diff describes how got differs from want, or returns "".
func (want reuseRun) diff(got reuseRun) string {
	if i := sameRows(got.rows, want.rows); i >= 0 {
		return fmt.Sprintf("%d rows, want %d; first difference at row %d", len(got.rows), len(want.rows), i)
	}
	if !slices.Equal(got.ops, want.ops) {
		return fmt.Sprintf("operators %+v, want %+v", got.ops, want.ops)
	}
	if got.unattributed != want.unattributed || got.io != want.io {
		return fmt.Sprintf("unattributed %+v and IO %+v, want %+v and %+v", got.unattributed, got.io, want.unattributed, want.io)
	}
	return ""
}

// reusePlans are plans with a `?` over emp (e.age < ?) that between them
// reach every operator and every way it keeps state: filters, bare and
// computed projections, a scan with $tid, sorts, both aggregations with a
// HAVING, a hash aggregation without aggregates (the shape of SELECT
// DISTINCT), the three joins, inner and outer, and a block nested-loops
// join over a base-table and a materialized inner. On a 4-page pool the
// sorts, the joins and the aggregations over eno spill; on 64 pages
// nothing does.
func reusePlans(e *env) map[string]lplan.Node {
	col := func(rel, name string) schema.ColID { return schema.ColID{Rel: rel, Name: name} }
	young := func(alias string) *lplan.Scan {
		s := e.scanEmp(alias)
		s.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col(alias, "age"), expr.NewParam(0))}
		return s
	}
	eqDno := expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))
	join := func(method lplan.JoinMethod, jt lplan.JoinType, l, r lplan.Node, preds ...expr.Expr) *lplan.Join {
		return &lplan.Join{L: l, R: r, Type: jt, Preds: preds, Method: method}
	}
	groupBy := func(method lplan.AggMethod, by string) *lplan.GroupBy {
		return &lplan.GroupBy{In: young("e"), GroupCols: []schema.ColID{col("e", by)}, Method: method,
			Aggs: []expr.Agg{
				{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"), Out: col("g", "asal")},
				{Kind: expr.AggCountStar, Out: col("g", "n")},
				{Kind: expr.AggMax, Arg: expr.Col("e", "age"), Out: col("g", "oldest")},
			},
			Having: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("g", "asal"), expr.IntLit(1500))}}
	}
	tid := young("e")
	tid.WithTID = true
	tid.Proj = []schema.ColID{col("e", lplan.TIDColumn), col("e", "sal")}
	sortAgg := groupBy(lplan.AggSort, "dno")
	sortAgg.Outputs = []lplan.NamedExpr{
		{E: expr.NewArith(expr.Mul, expr.Col("g", "asal"), expr.IntLit(2)), As: col("v", "dbl")},
		{E: expr.Col("e", "dno"), As: col("v", "dno")},
	}
	deptOver2 := &lplan.Filter{In: e.scanDept("d"), Preds: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("d", "dno"), expr.IntLit(2))}}
	return map[string]lplan.Node{
		"filter-project": &lplan.Project{In: &lplan.Filter{In: e.scanEmp("e"), Preds: []expr.Expr{
			expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.NewParam(0))}},
			Items: []lplan.NamedExpr{{E: expr.Col("e", "eno"), As: col("p", "eno")},
				{E: expr.NewArith(expr.Mul, expr.Col("e", "sal"), expr.IntLit(2)), As: col("p", "dbl")}}},
		"scan-tid":           tid,
		"sort-desc":          &lplan.Sort{In: young("e"), By: []schema.ColID{col("e", "sal"), col("e", "eno")}, Desc: []bool{true, false}},
		"hash-agg-dno":       groupBy(lplan.AggHash, "dno"),
		"hash-agg-eno":       groupBy(lplan.AggHash, "eno"),
		"hash-distinct":      &lplan.GroupBy{In: young("e"), GroupCols: []schema.ColID{col("e", "eno")}, Method: lplan.AggHash},
		"sort-agg":           sortAgg,
		"hash-join-left":     join(lplan.JoinHash, lplan.JoinLeft, young("e"), e.scanDept("d"), eqDno),
		"hash-join-full":     join(lplan.JoinHash, lplan.JoinFull, e.scanDept("d"), young("e"), eqDno),
		"merge-join":         join(lplan.JoinMerge, lplan.JoinInner, young("e"), e.scanDept("d"), eqDno),
		"block-nl-left":      join(lplan.JoinBlockNL, lplan.JoinLeft, young("e"), e.scanDept("d"), expr.NewCmp(expr.LT, expr.Col("e", "dno"), expr.Col("d", "dno"))),
		"block-nl-full-mat":  join(lplan.JoinBlockNL, lplan.JoinFull, young("e"), deptOver2, eqDno),
		"block-nl-inner-mat": join(lplan.JoinBlockNL, lplan.JoinInner, young("e"), deptOver2, eqDno, expr.NewCmp(expr.GT, expr.Col("e", "sal"), expr.IntLit(2000))),
	}
}

// disrupt runs p in one of the ways a run can end before its stream does,
// or with other settings, and closes it: kind picks which.
func disrupt(t *testing.T, st *storage.Store, p *Program, params []types.Value, kind int) string {
	t.Helper()
	var gov govern.Governor
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := New(st).WithParams(params)
	drain := func(cur *Cursor, stopAfter int) error {
		defer cur.Close()
		for i := 0; ; i++ {
			if i == stopAfter {
				return nil
			}
			_, ok, err := cur.Next()
			if err != nil || !ok {
				return err
			}
		}
	}
	switch kind % 7 {
	case 0:
		cur, err := ex.Open(p)
		if err == nil {
			err = drain(cur, 1)
		}
		if err != nil {
			t.Fatalf("closed after one row: %v", err)
		}
		return "closed after one row"
	case 1:
		cur, err := ex.WithBatchSize(3).Open(p)
		if err == nil {
			err = drain(cur, 7)
		}
		if err != nil {
			t.Fatalf("stopped at a limit: %v", err)
		}
		return "stopped after seven rows of batches of three"
	case 2:
		// Cancelled once the first row is out: the next batch boundary or
		// page access notices.
		gov.Init(ctx, govern.Limits{})
		se := st.NewSession(func(op storage.IOOp, _ bool) error { return gov.TickIO(op != storage.OpHit) })
		cur, err := ex.WithGovernor(&gov).WithSession(se).WithBatchSize(2).Open(p)
		if err != nil {
			t.Fatalf("cancelled: Open: %v", err)
		}
		err = drain(cur, 1)
		cancel()
		if err == nil {
			cur, err = ex.Open(p) // the cancelled governor fails the next run at once
			if err == nil {
				err = drain(cur, -1)
			}
		}
		if err != nil && !errors.Is(err, govern.ErrCanceled) {
			t.Fatalf("cancelled: %v", err)
		}
		return "cancelled mid-stream"
	case 3:
		gov.Init(ctx, govern.Limits{MaxRowsOut: 2})
		cur, err := ex.WithGovernor(&gov).Open(p)
		if err == nil {
			err = drain(cur, -1)
		}
		if err != nil && !errors.Is(err, govern.ErrRowLimit) {
			t.Fatalf("row limit: %v", err)
		}
		return "tripped the row limit"
	case 4:
		st.ForceDropCaches()
		st.InjectFault(storage.FaultPlan{FailAt: 0})
		defer st.ClearFault()
		cur, err := ex.Open(p)
		if err == nil {
			err = drain(cur, -1)
		}
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("injected fault: err = %v", err)
		}
		return "failed at its first page read"
	case 5:
		// Batches smaller than a page, so that an aggregation has formed
		// groups when the budget runs out.
		gov.Init(ctx, govern.Limits{MaxIOPages: 3})
		se := st.NewSession(func(op storage.IOOp, _ bool) error { return gov.TickIO(op != storage.OpHit) })
		st.ForceDropCaches()
		cur, err := ex.WithGovernor(&gov).WithSession(se).WithBatchSize(16).Open(p)
		if err == nil {
			err = drain(cur, -1)
		}
		if err != nil && !errors.Is(err, govern.ErrIOBudget) {
			t.Fatalf("IO budget: %v", err)
		}
		return "ran out of its page budget"
	default:
		cur, err := ex.WithBatchSize(1).Open(p)
		if err == nil {
			err = drain(cur, -1)
		}
		if err != nil {
			t.Fatalf("batch size 1: %v", err)
		}
		return "ran to the end a row at a time"
	}
}

// TestProgramReusesItsTree runs each plan's compiled program over and over,
// each normal run after one that ended early, failed or ran with other
// settings (disrupt), with rotating parameters and batch sizes. The
// disrupted runs take every row (age < 65), so a run that fails after
// forming groups is followed by one that forms fewer. Every
// normal run must equal a run of the same plan compiled afresh — rows in
// order, every operator's metrics but time, the unattributed IO and the
// session IO — and must have run on the one tree the program built on its
// first open. No spill file outlives the runs.
func TestProgramReusesItsTree(t *testing.T) {
	ages := []int64{40, 21, 65, 25}
	every := []types.Value{types.NewInt(65)} // the oldest employee is 64
	for _, pool := range []int{4, 64} {
		e := newEnv(t, pool, 3000, 60)
		plans := reusePlans(e)
		var names []string
		for name := range plans {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			plan := plans[name]
			t.Run(fmt.Sprintf("pool=%d/%s", pool, name), func(t *testing.T) {
				// Two collections empty the sync.Pools, so the plan's first
				// runs take fresh pooled objects, not what other plans left.
				runtime.GC()
				runtime.GC()
				p, err := Compile(plan)
				if err != nil {
					t.Fatal(err)
				}
				var kept *tree
				for round := range 14 {
					params := []types.Value{types.NewInt(ages[round%len(ages)])}
					bs := []int{DefaultBatchSize, 3}[round%2]
					how := "first run"
					if round > 0 {
						how = disrupt(t, e.store, p, every, round-1)
					}
					got, err := runCold(e.store, p, params, bs)
					if err != nil {
						t.Fatalf("round %d, after a run that %s: %v", round, how, err)
					}
					fresh, err := Compile(plan)
					if err != nil {
						t.Fatal(err)
					}
					want, err := runCold(e.store, fresh, params, bs)
					if err != nil {
						t.Fatal(err)
					}
					if d := want.diff(got); d != "" {
						t.Fatalf("round %d (age < %d, batch size %d), after a run that %s: %s", round, params[0].I, bs, how, d)
					}
					if len(p.free) != 1 || kept != nil && p.free[0] != kept {
						t.Fatalf("round %d: the program holds %d trees, want the one it built first", round, len(p.free))
					}
					kept = p.free[0]
				}
				if files := e.store.LiveTempFiles(); len(files) > 0 {
					t.Fatalf("spill files left behind: %v", files)
				}
			})
		}
	}
}

// TestProgramTreesAcrossGoroutines runs one program from several
// goroutines at once, each with parameters of its own, and checks every
// answer against the program's answer under the same parameters run
// alone. Run under -race it also checks that no two runs share a tree.
func TestProgramTreesAcrossGoroutines(t *testing.T) {
	e := newEnv(t, 4, 3000, 60)
	plans := reusePlans(e)
	for _, name := range []string{"hash-agg-eno", "hash-join-full", "block-nl-full-mat", "sort-agg"} {
		p, err := Compile(plans[name])
		if err != nil {
			t.Fatal(err)
		}
		ages := []int64{30, 45, 60}
		want := make([][]types.Row, len(ages))
		for i, age := range ages {
			res, err := New(e.store).WithParams([]types.Value{types.NewInt(age)}).RunProgram(p)
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
				for i := range 6 {
					k := (g + i) % len(ages)
					res, err := New(e.store).WithParams([]types.Value{types.NewInt(ages[k])}).WithBatchSize(1 + 500*(g%2)).RunProgram(p)
					if err == nil && sameRows(res.Rows, want[k]) >= 0 {
						err = fmt.Errorf("goroutine %d, age < %d: %d rows differ from the %d run alone", g, ages[k], len(res.Rows), len(want[k]))
					}
					if err != nil {
						errs <- fmt.Errorf("%s: %w", name, err)
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
		if len(p.free) < 1 || len(p.free) > 4 {
			t.Errorf("%s: the program holds %d trees after four goroutines' runs", name, len(p.free))
		}
	}
	if files := e.store.LiveTempFiles(); len(files) > 0 {
		t.Fatalf("spill files left behind: %v", files)
	}
}

// panicking is set while reuse_test_panic's accumulators panic.
var panicking atomic.Bool

type panicAcc struct{ n int64 }

func (a *panicAcc) Add(types.Value) {
	if panicking.Load() {
		panic("reuse_test_panic")
	}
	a.n++
}

func (a *panicAcc) Result() types.Value { return types.NewInt(a.n) }

// TestPanickedTreeIsNotReused: a run that panics inside an operator leaves
// its tree in the middle of a call. Closing its cursor still releases the
// tree's resources, but the program does not keep the tree: the next run
// builds another and answers as a fresh program does.
func TestPanickedTreeIsNotReused(t *testing.T) {
	if err := expr.RegisterAggregate(expr.UserAggSpec{Name: "reuse_test_panic", ResultKind: types.KindInt,
		New: func() expr.Accumulator { return new(panicAcc) }}); err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, 4, 3000, 60)
	scan := e.scanEmp("e")
	scan.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.NewParam(0))}
	// A sort aggregation folds as it hands groups out, in NextBatch.
	plan := &lplan.GroupBy{In: scan, GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}}, Method: lplan.AggSort,
		Aggs: []expr.Agg{{Kind: expr.AggUser, User: "reuse_test_panic", Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "g", Name: "n"}}}}
	p, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.NewInt(50)}
	want, err := runCold(e.store, p, params, DefaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.free) != 1 {
		t.Fatalf("the program holds %d trees after one run", len(p.free))
	}
	panicked := p.free[0]
	func() {
		cur, err := New(e.store).WithParams(params).Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("the aggregate did not panic")
			}
			panicking.Store(false)
			cur.Close()
		}()
		panicking.Store(true)
		cur.Next()
	}()
	if len(p.free) != 0 {
		t.Fatalf("the program kept the tree that panicked")
	}
	if files := e.store.LiveTempFiles(); len(files) > 0 {
		t.Fatalf("spill files left behind: %v", files)
	}
	got, err := runCold(e.store, p, params, DefaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.diff(got); d != "" {
		t.Fatalf("after the panic: %s", d)
	}
	if len(p.free) != 1 || p.free[0] == panicked {
		t.Fatalf("the run after the panic did not build a tree of its own")
	}
}
