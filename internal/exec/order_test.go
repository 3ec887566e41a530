package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/obs"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// orderCase is one plan whose output order and page IO are pinned exactly.
type orderCase struct {
	name string
	plan lplan.Node
	want func() []types.Row // in the order the operator must emit them
	io   string             // per-operator reads/writes/hits, plan preorder
}

// opIO renders every operator's self-attributed page IO as reads/writes/hits,
// root first, children in plan preorder.
func opIO(col *obs.Collector, n lplan.Node) string {
	var parts []string
	var walk func(lplan.Node)
	walk = func(n lplan.Node) {
		if st := col.Op(n); st == nil {
			parts = append(parts, "-")
		} else {
			parts = append(parts, fmt.Sprintf("%d/%d/%d", st.Reads, st.Writes, st.Hits))
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return strings.Join(parts, " ")
}

// byKey is a stable sort of rows on column 0, the order a sort on the key
// leaves equal keys in.
func byKey(rows []types.Row) []types.Row {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b types.Row) int { return types.Compare(a[0], b[0]) })
	return out
}

// joinable reports whether l(k, v) and r(k, w) join on k, and pass the
// residual l.v < r.w when it is on.
func joinable(l, r types.Row, residual bool) bool {
	if l[0].IsNull() || r[0].IsNull() || !types.Equal(l[0], r[0]) {
		return false
	}
	return !residual || l[1].I < r[1].I
}

// wantMergeJoin spells out a merge join's order: both inputs sorted on the
// key (stable), then each left row with its matches in right order.
func wantMergeJoin(l, r []types.Row, residual bool) []types.Row {
	var out []types.Row
	rs := byKey(r)
	for _, lr := range byKey(l) {
		for _, rr := range rs {
			if joinable(lr, rr, residual) {
				out = append(out, append(lr.Clone(), rr...))
			}
		}
	}
	return out
}

// wantBlockNL spells out a block nested-loops join's order. The outer is cut
// into blocks that end at the row whose width reaches the budget; per block,
// each inner row in scan order meets the block's rows in order, then (LEFT,
// FULL) the block's unmatched rows come out right-padded; a FULL join ends
// with the inner rows no block matched, left-padded.
func wantBlockNL(l, r []types.Row, jt lplan.JoinType, residual bool, budget int) []types.Row {
	nulls := types.Row{types.Null(), types.Null()}
	var out []types.Row
	innerMatched := make([]bool, len(r))
	for start := 0; start < len(l); {
		end, bytes := start, 0
		for end < len(l) && bytes < budget {
			bytes += l[end].DiskWidth()
			end++
		}
		block := l[start:end]
		matched := make([]bool, len(block))
		for ri, rr := range r {
			for bi, lr := range block {
				if joinable(lr, rr, residual) {
					out = append(out, append(lr.Clone(), rr...))
					matched[bi], innerMatched[ri] = true, true
				}
			}
		}
		for bi, lr := range block {
			if jt.Outer() && !matched[bi] {
				out = append(out, append(lr.Clone(), nulls...))
			}
		}
		start = end
	}
	for ri, rr := range r {
		if jt == lplan.JoinFull && !innerMatched[ri] {
			out = append(out, append(nulls.Clone(), rr...))
		}
	}
	return out
}

// oracleRows runs the plan through the oracle.
func oracleRows(t *testing.T, st *storage.Store, n lplan.Node) []types.Row {
	t.Helper()
	res, err := Naive(st, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// checkedOrder returns want, an order spelled out for the plan, once the
// oracle agrees it holds the plan's rows.
func checkedOrder(t *testing.T, st *storage.Store, n lplan.Node, want []types.Row) []types.Row {
	t.Helper()
	if !BagEqual(&Result{Rows: want}, &Result{Rows: oracleRows(t, st, n)}) {
		t.Fatalf("the order spelled out for %s is not the oracle's bag", n.Describe())
	}
	return want
}

// TestSortedAndBlockOperatorsOrderAndIO runs merge join, sort aggregation
// and block nested loops at batch sizes 1, 3 and 1024 over keys that repeat
// on both sides (so runs and groups cross batch boundaries) and include
// NULLs. Rows must come out in exactly the order spelled out for the
// operator (a bag the oracle agrees with), every operator's page IO must be
// the pinned one at every batch size, and no spill file may be left behind.
func TestSortedAndBlockOperatorsOrderAndIO(t *testing.T) {
	eq := []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("l", "k"), expr.Col("r", "k"))}
	preds := func(residual bool) []expr.Expr {
		if residual {
			return append(slices.Clone(eq), expr.NewCmp(expr.LT, expr.Col("l", "v"), expr.Col("r", "w")))
		}
		return eq
	}
	lk := []schema.ColID{{Rel: "l", Name: "k"}}
	agg := func(k expr.AggKind, rel, col, out string) expr.Agg {
		a := expr.Agg{Kind: k, Out: schema.ColID{Rel: "g", Name: out}}
		if col != "" {
			a.Arg = expr.Col(rel, col)
		}
		return a
	}
	for _, regime := range []struct {
		name         string
		pool         int
		nL, nR, keys int
		io           map[string]string
	}{
		// Sorts fit the pool: every page read is a base-table scan's.
		{"memory", 64, 1200, 1400, 400, map[string]string{
			"merge/residual=false":  "0/0/0 5/0/1 6/0/1",
			"merge/residual=true":   "0/0/0 5/0/1 6/0/1",
			"sortagg/having+median": "0/0/0 5/0/1",
			"sortagg/scalar-empty":  "0/0/0 5/0/1",
			"sortagg/over-merge":    "0/0/0 0/0/0 5/0/1 6/0/1",
		}},
		// Sorts spill runs. A merge join's order within a key is then the
		// run merge's, so the merge join is checked here under a sort
		// aggregation, whose order and sums do not depend on it. The merge
		// join's output is already in key order, so the sort aggregation
		// over it sorts nothing and reads and writes no page.
		{"spill", 2, 1200, 1400, 400, map[string]string{
			"sortagg/having+median": "8/8/0 5/0/1",
			"sortagg/scalar-empty":  "0/0/0 5/0/1",
			"sortagg/over-merge":    "0/0/0 15/18/0 5/0/1 6/0/1",
		}},
		// The outer is cut into three blocks: a scanned inner is read three
		// times, a materialized one written once and read three times (FULL:
		// once more for the unmatched inner rows).
		{"blocks", 3, 600, 1000, 200, map[string]string{
			"bnl/inner/scan/residual=false":         "0/0/0 2/0/1 12/0/3",
			"bnl/inner/scan/residual=true":          "0/0/0 2/0/1 12/0/3",
			"bnl/inner/materialized/residual=false": "15/5/0 2/0/1 0/0/0 4/0/1",
			"bnl/inner/materialized/residual=true":  "15/5/0 2/0/1 0/0/0 4/0/1",
			"bnl/left/scan/residual=false":          "0/0/0 2/0/1 12/0/3",
			"bnl/left/scan/residual=true":           "0/0/0 2/0/1 12/0/3",
			"bnl/left/materialized/residual=false":  "15/5/0 2/0/1 0/0/0 4/0/1",
			"bnl/left/materialized/residual=true":   "15/5/0 2/0/1 0/0/0 4/0/1",
			"bnl/full/scan/residual=false":          "0/0/0 2/0/1 16/0/4",
			"bnl/full/scan/residual=true":           "0/0/0 2/0/1 16/0/4",
			"bnl/full/materialized/residual=false":  "20/5/0 2/0/1 0/0/0 4/0/1",
			"bnl/full/materialized/residual=true":   "20/5/0 2/0/1 0/0/0 4/0/1",
		}},
	} {
		e := newJoinEnv(t, regime.pool, regime.nL, regime.nR, regime.keys, false, true)
		scanL := func() *lplan.Scan { return &lplan.Scan{Alias: "l", Table: e.l} }
		scanR := func() *lplan.Scan { return &lplan.Scan{Alias: "r", Table: e.r} }
		l, err := Naive(e.store, scanL(), nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Naive(e.store, scanR(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var cases []orderCase
		add := func(name string, plan lplan.Node, want func() []types.Row) {
			io, ok := regime.io[name]
			if !ok {
				return
			}
			cases = append(cases, orderCase{name: name, plan: plan, want: want, io: io})
		}
		for _, residual := range []bool{false, true} {
			plan := &lplan.Join{L: scanL(), R: scanR(), Preds: preds(residual), Method: lplan.JoinMerge}
			add(fmt.Sprintf("merge/residual=%v", residual), plan, func() []types.Row {
				return checkedOrder(t, e.store, plan, wantMergeJoin(l.Rows, r.Rows, residual))
			})
		}
		// A sort aggregation's groups have distinct keys, so the oracle's
		// rows in key order are its exact order.
		groupsInKeyOrder := func(n lplan.Node) func() []types.Row {
			return func() []types.Row { return byKey(oracleRows(t, e.store, n)) }
		}
		grouped := &lplan.GroupBy{In: scanL(), GroupCols: lk, Method: lplan.AggSort,
			Aggs: []expr.Agg{agg(expr.AggSum, "l", "v", "s"), agg(expr.AggCountStar, "", "", "n"),
				agg(expr.AggMedian, "l", "v", "m")},
			Having: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("g", "n"), expr.IntLit(2))}}
		add("sortagg/having+median", grouped, groupsInKeyOrder(grouped))
		empty := scanL()
		empty.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("l", "v"), expr.IntLit(0))}
		scalar := &lplan.GroupBy{In: empty, Method: lplan.AggSort,
			Aggs: []expr.Agg{agg(expr.AggSum, "l", "v", "s"), agg(expr.AggCountStar, "", "", "n"),
				agg(expr.AggMedian, "l", "v", "m")}}
		add("sortagg/scalar-empty", scalar, groupsInKeyOrder(scalar))
		overMerge := &lplan.GroupBy{GroupCols: lk, Method: lplan.AggSort,
			In:   &lplan.Join{L: scanL(), R: scanR(), Preds: eq, Method: lplan.JoinMerge},
			Aggs: []expr.Agg{agg(expr.AggCountStar, "", "", "n"), agg(expr.AggSum, "r", "w", "s")}}
		add("sortagg/over-merge", overMerge, groupsInKeyOrder(overMerge))
		budget := max(regime.pool*storage.PageSize-2*storage.PageSize, storage.PageSize)
		bnlWant := map[string][]types.Row{} // the scanned and the materialized inner share an order
		for jt, jn := range map[lplan.JoinType]string{lplan.JoinInner: "inner", lplan.JoinLeft: "left", lplan.JoinFull: "full"} {
			for _, inner := range []string{"scan", "materialized"} {
				for _, residual := range []bool{false, true} {
					var rn lplan.Node = scanR()
					if inner == "materialized" {
						rn = &lplan.Filter{In: scanR(), Preds: []expr.Expr{
							expr.NewCmp(expr.GE, expr.Col("r", "w"), expr.IntLit(0))}}
					}
					plan := &lplan.Join{L: scanL(), R: rn, Type: jt, Preds: preds(residual), Method: lplan.JoinBlockNL}
					add(fmt.Sprintf("bnl/%s/%s/residual=%v", jn, inner, residual), plan, func() []types.Row {
						key := fmt.Sprintf("%s/%v", jn, residual)
						if bnlWant[key] == nil {
							bnlWant[key] = checkedOrder(t, e.store, plan, wantBlockNL(l.Rows, r.Rows, jt, residual, budget))
						}
						return bnlWant[key]
					})
				}
			}
		}
		if len(cases) != len(regime.io) {
			t.Fatalf("%s: %d cases pinned, %d built", regime.name, len(regime.io), len(cases))
		}

		for _, c := range cases {
			want := c.want()
			for _, bs := range []int{1, 3, 1024} {
				name := fmt.Sprintf("%s/%s/batch=%d", regime.name, c.name, bs)
				e.store.ForceDropCaches()
				col := obs.NewCollector()
				se := e.store.NewSession(func(op storage.IOOp, temp bool) error {
					col.RecordIO(ioKinds[op], temp)
					return nil
				})
				got, err := New(e.store).WithSession(se).WithCollector(col).WithBatchSize(bs).Run(c.plan)
				se.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if io := opIO(col, c.plan); io != c.io {
					t.Errorf("%s: page IO %s, want %s", name, io, c.io)
				}
				if live := e.store.LiveTempFiles(); len(live) != 0 {
					t.Errorf("%s: spill files left behind: %v", name, live)
				}
				if len(got.Rows) != len(want) {
					t.Fatalf("%s: %d rows, want %d", name, len(got.Rows), len(want))
				}
				for i, w := range want {
					if len(got.Rows[i]) != len(w) || types.CompareRows(got.Rows[i], w, allCols(len(w))) != 0 {
						t.Fatalf("%s: row %d is %v, want %v", name, i, got.Rows[i], w)
					}
				}
			}
		}
	}
}

// ioKinds maps a page access to the collector's kind, as the engine's
// session hook does.
var ioKinds = map[storage.IOOp]obs.IOKind{storage.OpRead: obs.IORead, storage.OpWrite: obs.IOWrite, storage.OpHit: obs.IOHit}

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BenchmarkMergeJoin joins 24 000 rows with 24 000, all in the pool, on 4 775
// and 24 000 distinct keys per side; both inputs are sorted first.
func BenchmarkMergeJoin(b *testing.B) {
	for _, keys := range []int{4775, 24000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			e := newJoinEnv(b, 4096, 24000, 24000, keys, false, false)
			plan := e.plan(lplan.JoinInner, false)
			plan.Method = lplan.JoinMerge
			benchDrain(b, e.store, plan)
		})
	}
}

// BenchmarkSortAggregate aggregates 24 000 rows, all in the pool, into 25,
// 4 775 and 24 000 groups (BenchmarkHashAgg's shapes) after sorting them,
// and, as E2's plan does, directly over a merge join on the grouping key,
// whose output needs no sort.
func BenchmarkSortAggregate(b *testing.B) {
	for _, groups := range []int{25, 4775, 24000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			st, plan := newGroupEnv(b, 24000, groups, false)
			plan.Method = lplan.AggSort
			benchDrain(b, st, plan)
		})
	}
	b.Run("over-merge", func(b *testing.B) {
		e := newJoinEnv(b, 4096, 24000, 24000, 4775, false, false)
		join := e.plan(lplan.JoinInner, false)
		join.Method = lplan.JoinMerge
		benchDrain(b, e.store, &lplan.GroupBy{In: join, GroupCols: []schema.ColID{{Rel: "l", Name: "k"}},
			Aggs: []expr.Agg{
				{Kind: expr.AggSum, Arg: expr.Col("r", "w"), Out: schema.ColID{Rel: "g", Name: "s"}},
				{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}},
			},
			Method: lplan.AggSort})
	})
}

// BenchmarkBlockNL joins 2 000 outer rows with 6 000 inner rows in a pool of
// 8 pages, which cuts the outer into two blocks: over a scanned inner, and
// over one materialized to a spill file first.
func BenchmarkBlockNL(b *testing.B) {
	for _, inner := range []string{"scan", "materialized"} {
		b.Run(inner, func(b *testing.B) {
			e := newJoinEnv(b, 8, 2000, 6000, 2000, false, false)
			plan := e.plan(lplan.JoinInner, false)
			plan.Method = lplan.JoinBlockNL
			if inner == "materialized" {
				plan.R = &lplan.Filter{In: plan.R, Preds: []expr.Expr{expr.NewCmp(expr.GE, expr.Col("r", "w"), expr.IntLit(0))}}
			}
			benchDrain(b, e.store, plan)
		})
	}
}

// benchDrain times draining the plan through a cursor.
func benchDrain(b *testing.B, st *storage.Store, plan lplan.Node) {
	out := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = drain(b, st, plan)
	}
	b.ReportMetric(float64(out), "rows/op")
}
