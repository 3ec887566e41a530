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

// runAttributed runs the plan at batch size bs with every page access
// attributed to the operator that made it, as the engine attributes them:
// opIO renders the collector it returns.
func runAttributed(st *storage.Store, plan lplan.Node, bs int) (*Result, *obs.Collector, error) {
	col := new(obs.Collector)
	se := st.NewSession(func(op storage.IOOp, temp bool) error {
		col.RecordIO(ioKinds[op], temp)
		return nil
	})
	res, err := New(st).WithSession(se).WithCollector(col).WithBatchSize(bs).Run(plan)
	return res, col, err
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

// TestSortedAndBlockOperatorsOrderAndIO runs sort (ascending and DESC),
// merge join, sort aggregation and block nested loops at batch sizes 1, 3
// and 1024 over keys that repeat on both sides (so runs and groups cross
// batch boundaries) and include NULLs: INT keys, VARCHAR keys, and FLOAT
// keys with two NaN payloads, 0.0 and -0.0, and both infinities
// (floatKey). Rows must come out in exactly the order spelled out for the
// operator (a bag the oracle agrees with), every operator's page IO must be
// the pinned one at every batch size, and no spill file may be left behind.
// The pinned IO of a case is per key kind: INT, VARCHAR, FLOAT.
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
		io           map[string][3]string // by key kind: INT, VARCHAR, FLOAT
	}{
		// Sorts fit the pool: every page read is a base-table scan's.
		{"memory", 64, 1200, 1400, 400, map[string][3]string{
			"sort/desc=false":       {"0/0/0 5/0/1", "0/0/0 6/0/1", "0/0/0 5/0/1"},
			"sort/desc=true":        {"0/0/0 5/0/1", "0/0/0 6/0/1", "0/0/0 5/0/1"},
			"merge/residual=false":  {"0/0/0 5/0/1 6/0/1", "0/0/0 6/0/1 7/0/1", "0/0/0 5/0/1 6/0/1"},
			"merge/residual=true":   {"0/0/0 5/0/1 6/0/1", "0/0/0 6/0/1 7/0/1", "0/0/0 5/0/1 6/0/1"},
			"sortagg/having+median": {"0/0/0 5/0/1", "0/0/0 6/0/1", "0/0/0 5/0/1"},
			"sortagg/scalar-empty":  {"0/0/0 5/0/1", "0/0/0 6/0/1", "0/0/0 5/0/1"},
			"sortagg/over-merge":    {"0/0/0 0/0/0 5/0/1 6/0/1", "0/0/0 0/0/0 6/0/1 7/0/1", "0/0/0 0/0/0 5/0/1 6/0/1"},
			"sortagg/over-desc":     {"0/0/0 0/0/0 5/0/1", "0/0/0 0/0/0 6/0/1", "0/0/0 0/0/0 5/0/1"},
		}},
		// Sorts spill runs. A merge join's order within a key is then the
		// run merge's, so the merge join is checked here under a sort
		// aggregation, whose order and sums do not depend on it. The merge
		// join's output is already in key order, so the sort aggregation
		// over it sorts nothing and reads and writes no page.
		{"spill", 2, 1200, 1400, 400, map[string][3]string{
			"sort/desc=false":       {"8/8/0 5/0/1", "10/10/0 6/0/1", "8/8/0 5/0/1"},
			"sort/desc=true":        {"8/8/0 5/0/1", "10/10/0 6/0/1", "8/8/0 5/0/1"},
			"sortagg/having+median": {"8/8/0 5/0/1", "10/10/0 6/0/1", "8/8/0 5/0/1"},
			"sortagg/scalar-empty":  {"0/0/0 5/0/1", "0/0/0 6/0/1", "0/0/0 5/0/1"},
			"sortagg/over-merge":    {"0/0/0 15/18/0 5/0/1 6/0/1", "0/0/0 18/21/0 6/0/1 7/0/1", "0/0/0 18/18/0 5/0/1 6/0/1"},
		}},
		// The outer is cut into three blocks: a scanned inner is read three
		// times, a materialized one written once and read three times (FULL:
		// once more for the unmatched inner rows).
		{"blocks", 3, 600, 1000, 200, map[string][3]string{
			"bnl/inner/scan/residual=false":         {"0/0/0 2/0/1 12/0/3", "0/0/0 3/0/1 20/0/4", "0/0/0 2/0/1 12/0/3"},
			"bnl/inner/scan/residual=true":          {"0/0/0 2/0/1 12/0/3", "0/0/0 3/0/1 20/0/4", "0/0/0 2/0/1 12/0/3"},
			"bnl/inner/materialized/residual=false": {"15/5/0 2/0/1 0/0/0 4/0/1", "24/6/0 3/0/1 0/0/0 5/0/1", "15/5/0 2/0/1 0/0/0 4/0/1"},
			"bnl/inner/materialized/residual=true":  {"15/5/0 2/0/1 0/0/0 4/0/1", "24/6/0 3/0/1 0/0/0 5/0/1", "15/5/0 2/0/1 0/0/0 4/0/1"},
			"bnl/left/scan/residual=false":          {"0/0/0 2/0/1 12/0/3", "0/0/0 3/0/1 20/0/4", "0/0/0 2/0/1 12/0/3"},
			"bnl/left/scan/residual=true":           {"0/0/0 2/0/1 12/0/3", "0/0/0 3/0/1 20/0/4", "0/0/0 2/0/1 12/0/3"},
			"bnl/left/materialized/residual=false":  {"15/5/0 2/0/1 0/0/0 4/0/1", "24/6/0 3/0/1 0/0/0 5/0/1", "15/5/0 2/0/1 0/0/0 4/0/1"},
			"bnl/left/materialized/residual=true":   {"15/5/0 2/0/1 0/0/0 4/0/1", "24/6/0 3/0/1 0/0/0 5/0/1", "15/5/0 2/0/1 0/0/0 4/0/1"},
			"bnl/full/scan/residual=false":          {"0/0/0 2/0/1 16/0/4", "0/0/0 3/0/1 25/0/5", "0/0/0 2/0/1 16/0/4"},
			"bnl/full/scan/residual=true":           {"0/0/0 2/0/1 16/0/4", "0/0/0 3/0/1 25/0/5", "0/0/0 2/0/1 16/0/4"},
			"bnl/full/materialized/residual=false":  {"20/5/0 2/0/1 0/0/0 4/0/1", "30/6/0 3/0/1 0/0/0 5/0/1", "20/5/0 2/0/1 0/0/0 4/0/1"},
			"bnl/full/materialized/residual=true":   {"20/5/0 2/0/1 0/0/0 4/0/1", "30/6/0 3/0/1 0/0/0 5/0/1", "20/5/0 2/0/1 0/0/0 4/0/1"},
		}},
	} {
		for ki, kind := range []keyKind{keyInt, keyString, keyFloat} {
			e := newJoinEnv(t, regime.pool, regime.nL, regime.nR, regime.keys, kind, true, false)
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
				cases = append(cases, orderCase{name: name, plan: plan, want: want, io: io[ki]})
			}
			for _, residual := range []bool{false, true} {
				plan := &lplan.Join{L: scanL(), R: scanR(), Preds: preds(residual), Method: lplan.JoinMerge}
				add(fmt.Sprintf("merge/residual=%v", residual), plan, func() []types.Row {
					return checkedOrder(t, e.store, plan, wantMergeJoin(l.Rows, r.Rows, residual))
				})
			}
			// A Sort is stable in memory and spilled alike: equal keys keep
			// their scan order, and NULLs come first ascending, last DESC.
			for _, desc := range []bool{false, true} {
				plan := &lplan.Sort{In: scanL(), By: lk, Desc: []bool{desc}}
				add(fmt.Sprintf("sort/desc=%v", desc), plan, func() []types.Row {
					want := slices.Clone(l.Rows)
					slices.SortStableFunc(want, func(a, b types.Row) int {
						if desc {
							return types.Compare(b[0], a[0])
						}
						return types.Compare(a[0], b[0])
					})
					return checkedOrder(t, e.store, plan, want)
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
			// A DESC Sort's output is in no order a sort aggregation can use: it
			// sorts again, and its groups still come out in ascending key order.
			overDesc := &lplan.GroupBy{GroupCols: lk, Method: lplan.AggSort,
				In:   &lplan.Sort{In: scanL(), By: lk, Desc: []bool{true}},
				Aggs: []expr.Agg{agg(expr.AggCountStar, "", "", "n")}}
			add("sortagg/over-desc", overDesc, groupsInKeyOrder(overDesc))
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
					name := fmt.Sprintf("%s/%s/%s/batch=%d", regime.name, [...]string{"int", "string", "float"}[ki], c.name, bs)
					e.store.ForceDropCaches()
					got, col, err := runAttributed(e.store, c.plan, bs)
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
}

// TestSortSkippedExactlyWhenOrderCovers pins when an ascending Sort reads
// its input as it is: exactly when the input's order (lplan.Order) has the
// Sort's keys as a prefix, in key order. A sort aggregation's order follows
// its grouping column through Outputs' rename and a merge join's survives a
// projection that keeps its key; a permutation of a merge join's keys, a
// projected-away key and a hash join's probe side do not count. Either way
// the rows come out sorted, at batch size 1 and the default, on a pool the
// sorts spill from.
func TestSortSkippedExactlyWhenOrderCovers(t *testing.T) {
	e := newJoinEnv(t, 2, 1200, 1400, 400, keyInt, true, false)
	col := func(rel, name string) schema.ColID { return schema.ColID{Rel: rel, Name: name} }
	scanL := func() *lplan.Scan { return &lplan.Scan{Alias: "l", Table: e.l} }
	scanR := func() *lplan.Scan { return &lplan.Scan{Alias: "r", Table: e.r} }
	eqK := expr.NewCmp(expr.EQ, expr.Col("l", "k"), expr.Col("r", "k"))
	eqV := expr.NewCmp(expr.EQ, expr.Col("l", "v"), expr.Col("r", "w"))
	merge := func(proj []schema.ColID, preds ...expr.Expr) *lplan.Join {
		return &lplan.Join{L: scanL(), R: scanR(), Preds: preds, Proj: proj, Method: lplan.JoinMerge}
	}
	renamed := &lplan.GroupBy{In: scanL(), GroupCols: []schema.ColID{col("l", "k")}, Method: lplan.AggSort,
		Aggs:    []expr.Agg{{Kind: expr.AggCountStar, Out: col("g", "n")}},
		Outputs: []lplan.NamedExpr{{E: expr.Col("g", "n"), As: col("v", "n")}, {E: expr.Col("l", "k"), As: col("v", "k")}}}
	for _, c := range []struct {
		name  string
		sort  *lplan.Sort
		sorts bool
	}{
		{"sortagg-renamed", &lplan.Sort{In: renamed, By: []schema.ColID{col("v", "k")}}, false},
		{"merge-proj-keeps-key", &lplan.Sort{In: merge([]schema.ColID{col("r", "w"), col("l", "k")}, eqK), By: []schema.ColID{col("l", "k")}}, false},
		{"merge-proj-drops-key", &lplan.Sort{In: merge([]schema.ColID{col("r", "k"), col("r", "w")}, eqK), By: []schema.ColID{col("r", "k")}}, true},
		{"merge-two-keys-prefix", &lplan.Sort{In: merge(nil, eqK, eqV), By: []schema.ColID{col("l", "k")}}, false},
		{"merge-two-keys-permuted", &lplan.Sort{In: merge(nil, eqK, eqV), By: []schema.ColID{col("l", "v"), col("l", "k")}}, true},
		{"hash-over-sorted", &lplan.Sort{By: []schema.ColID{col("l", "k")}, In: &lplan.Join{Preds: []expr.Expr{eqK}, Method: lplan.JoinHash,
			L: &lplan.Sort{In: scanL(), By: []schema.ColID{col("l", "k")}}, R: scanR()}}, true},
	} {
		p, err := Compile(c.sort)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, sorts := New(e.store).build(p.root).(*meteredIter).in.(*sortIter); sorts != c.sorts {
			t.Errorf("%s: the Sort sorts = %v, want %v (input order %v)", c.name, sorts, c.sorts, lplan.Order(c.sort.In))
		}
		keys, err := colIndexes(c.sort.Schema(), c.sort.By)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{1, DefaultBatchSize} {
			res, err := New(e.store).WithBatchSize(bs).RunProgram(p)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s: no rows", c.name)
			}
			for i := 1; i < len(res.Rows); i++ {
				if types.CompareRows(res.Rows[i-1], res.Rows[i], keys) > 0 {
					t.Fatalf("%s, batch size %d: row %d %v sorts before row %d %v", c.name, bs, i, res.Rows[i], i-1, res.Rows[i-1])
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
// and 24 000 distinct keys per side; both inputs are sorted first. The
// cases named residual also test l.v < r.w on every key-matching pair.
func BenchmarkMergeJoin(b *testing.B) {
	for _, keys := range []int{4775, 24000} {
		for _, res := range []joinResidual{noResidual, pairResidual} {
			b.Run(benchName(fmt.Sprintf("keys=%d", keys), res), func(b *testing.B) {
				e := newJoinEnv(b, 4096, 24000, 24000, keys, keyInt, false, false)
				plan := e.plan(lplan.JoinInner, res)
				plan.Method = lplan.JoinMerge
				benchDrain(b, e.store, plan)
			})
		}
	}
}

// benchName is a join benchmark's case name: name, and /residual when the
// join tests a pair residual.
func benchName(name string, res joinResidual) string {
	if res == pairResidual {
		return name + "/residual"
	}
	return name
}

// BenchmarkSort sorts 24 000 rows on a key with 4 775 distinct values,
// ascending and DESC: in memory (a 4 096-page pool holds them all) and
// spilling (a 16-page pool cuts them into sorted runs that are merged).
// It is the operator every ORDER BY runs in.
func BenchmarkSort(b *testing.B) {
	for _, regime := range []struct {
		name string
		pool int
	}{{"memory", 4096}, {"spill", 16}} {
		for _, desc := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/desc=%v", regime.name, desc), func(b *testing.B) {
				e := newJoinEnv(b, regime.pool, 24000, 0, 4775, keyInt, false, false)
				benchDrain(b, e.store, &lplan.Sort{In: &lplan.Scan{Alias: "l", Table: e.l},
					By: []schema.ColID{{Rel: "l", Name: "k"}}, Desc: []bool{desc}})
			})
		}
	}
}

// BenchmarkSortAggregate aggregates 24 000 rows, all in the pool, into 25,
// 4 775 and 24 000 groups (BenchmarkHashAgg's shapes) after sorting them,
// and, as E2's plan does, directly over a merge join on the grouping key,
// whose output needs no sort.
func BenchmarkSortAggregate(b *testing.B) {
	for _, groups := range []int{25, 4775, 24000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			st, plan := newGroupEnv(b, 24000, groups, keyInt)
			plan.Method = lplan.AggSort
			benchDrain(b, st, plan)
		})
	}
	b.Run("over-merge", func(b *testing.B) {
		e := newJoinEnv(b, 4096, 24000, 24000, 4775, keyInt, false, false)
		join := e.plan(lplan.JoinInner, noResidual)
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
// over one materialized to a spill file first. The cases named residual
// also test l.v < r.w on every key-matching pair; scan/left is a LEFT join,
// which pads every block row none of whose pairs held after each pass, and
// scan/string joins on VARCHAR keys, whose wider rows cut more blocks.
func BenchmarkBlockNL(b *testing.B) {
	for _, c := range []struct {
		inner    string
		joinType lplan.JoinType
		kind     keyKind
	}{
		{"scan", lplan.JoinInner, keyInt},
		{"materialized", lplan.JoinInner, keyInt},
		{"scan/left", lplan.JoinLeft, keyInt},
		{"scan/string", lplan.JoinInner, keyString},
	} {
		for _, res := range []joinResidual{noResidual, pairResidual} {
			b.Run(benchName(c.inner, res), func(b *testing.B) {
				e := newJoinEnv(b, 8, 2000, 6000, 2000, c.kind, false, false)
				plan := e.plan(c.joinType, res)
				plan.Method = lplan.JoinBlockNL
				if c.inner == "materialized" {
					plan.R = &lplan.Filter{In: plan.R, Preds: []expr.Expr{expr.NewCmp(expr.GE, expr.Col("r", "w"), expr.IntLit(0))}}
				}
				benchDrain(b, e.store, plan)
			})
		}
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
