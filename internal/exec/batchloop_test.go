package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// loopTable stores rows as a table named name of the given columns, each
// an INT unless kinds names another kind.
func loopTable(t *testing.T, st *storage.Store, name string, cols []string, kinds map[string]types.Kind, rows []types.Row) *catalog.Table {
	t.Helper()
	sch := make(schema.Schema, len(cols))
	for i, c := range cols {
		sch[i] = schema.Column{ID: schema.ColID{Rel: name, Name: c}, Type: types.KindInt}
		if k, ok := kinds[c]; ok {
			sch[i].Type = k
		}
	}
	tbl := &catalog.Table{Name: name, File: st.CreateFile(name), Schema: sch}
	for _, r := range rows {
		if err := st.Append(tbl.File, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(tbl.File); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// loopValues are what the test tables' value columns draw from: INTs and
// FLOATs that compare equal across kinds, -0.0 beside +0.0, two NaNs,
// VARCHARs and NULL.
var (
	loopInts    = []types.Value{types.NewInt(-3), types.NewInt(-1), types.NewInt(0), types.NewInt(1), types.NewInt(2), types.NewInt(3), types.Null()}
	loopFloats  = []types.Value{types.NewFloat(math.NaN()), types.NewFloat(otherNaN()), types.NewFloat(negZero()), types.NewFloat(0), types.NewFloat(1.5), types.NewFloat(-2), types.NewFloat(2), types.NewFloat(3), types.Null()}
	loopStrings = []types.Value{types.NewString(""), types.NewString("a"), types.NewString("ab"), types.NewString("b"), types.Null()}
)

// batchesOf runs p at batch size bs through its iterator, and returns its
// rows and the length of every batch it emitted.
func batchesOf(t *testing.T, st *storage.Store, p *Program, bs int, params []types.Value) (rows []types.Row, lens []int, err error) {
	t.Helper()
	cur, err := New(st).WithBatchSize(bs).WithParams(params).Open(p)
	if err != nil {
		return nil, nil, err
	}
	defer cur.Close()
	b := getBatch()
	defer putBatch(b)
	for {
		if err := cur.t.root.NextBatch(b); err != nil {
			return nil, nil, err
		}
		if b.Len() == 0 {
			return rows, lens, nil
		}
		lens = append(lens, b.Len())
		for i := range b.Len() {
			rows = append(rows, b.gather(i, nil))
		}
	}
}

// sameRows reports the first row at which got and want differ, value by
// value to the bit (so -0.0 is not +0.0), or -1. Any NaN equals any other:
// a sum's NaN takes the payload of whichever NaN operand came first, and
// the reference adds in its own order.
func sameRows(got, want []types.Row) int {
	nan := func(v types.Value) bool { f := v.F(); return v.K == types.KindFloat && f != f }
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || len(got[i]) != len(want[i]) {
			return i
		}
		for j, v := range got[i] {
			if w := want[i][j]; !sameBits(v, w) && !(nan(v) && nan(w)) {
				return i
			}
		}
	}
	return -1
}

// fullBatches reports whether every batch but the last holds bs rows.
func fullBatches(lens []int, bs int) bool {
	for i, n := range lens {
		if n > bs || n < bs && i != len(lens)-1 {
			return false
		}
	}
	return true
}

// TestBatchProbeAgainstNaive joins l(k, a, f, s) with r(k, b, g, u) by hash
// on k — r's keys unique, or repeated so that chains run longer than a
// batch, and on both sides a few NULL keys — as INNER, LEFT and FULL joins
// under residuals of every shape: pairs comparing INT with INT, INT with
// FLOAT and FLOAT with FLOAT (NaN, -0.0), one written right column first,
// a conjunct of the build input alone, predicates no kernel runs, and all
// of them at once. At batch sizes 1, 3 and 1024 the rows must come out in
// the order the hash join specifies — probe rows in order, each with its
// matches in build order or else padded, then the unmatched build rows —
// equal to the bit to that order spelled out row by row, and as a bag to
// exec.Naive's; every batch but the last must be full, so that a batch
// fills in the middle of a chain and resumes there.
func TestBatchProbeAgainstNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	pick := func(vals []types.Value) types.Value { return vals[rnd.Intn(len(vals))] }
	key := func(n int) types.Value {
		if rnd.Intn(12) == 0 {
			return types.Null()
		}
		return types.NewInt(int64(rnd.Intn(n)))
	}
	st := storage.NewStore(256)
	kinds := map[string]types.Kind{"f": types.KindFloat, "g": types.KindFloat, "s": types.KindString, "u": types.KindString}
	var lRows, unique, dup []types.Row
	for range 90 {
		lRows = append(lRows, types.Row{key(14), pick(loopInts), pick(loopFloats), pick(loopStrings)})
	}
	for _, k := range rnd.Perm(16) {
		unique = append(unique, types.Row{types.NewInt(int64(k)), pick(loopInts), pick(loopFloats), pick(loopStrings)})
	}
	unique = append(unique, types.Row{types.Null(), types.NewInt(1), types.NewFloat(1), types.NewString("a")})
	for range 60 {
		dup = append(dup, types.Row{key(8), pick(loopInts), pick(loopFloats), pick(loopStrings)})
	}
	l := loopTable(t, st, "l", []string{"k", "a", "f", "s"}, kinds, lRows)
	builds := map[string][]types.Row{"unique": unique, "dup": dup}
	tables := map[string]*catalog.Table{
		"unique": loopTable(t, st, "ru", []string{"k", "b", "g", "u"}, kinds, unique),
		"dup":    loopTable(t, st, "rd", []string{"k", "b", "g", "u"}, kinds, dup),
	}
	la, lf, ls := expr.Col("l", "a"), expr.Col("l", "f"), expr.Col("l", "s")
	rb, rg, ru := expr.Col("r", "b"), expr.Col("r", "g"), expr.Col("r", "u")
	nonKernel := expr.Or(expr.NewIsNull(la, false), expr.NewCmp(expr.GT, expr.NewArith(expr.Add, la, rb), expr.IntLit(1)))
	residuals := []struct {
		name  string
		preds []expr.Expr
	}{
		{"none", nil},
		{"int<int", []expr.Expr{expr.NewCmp(expr.LT, la, rb)}},
		{"int>=float", []expr.Expr{expr.NewCmp(expr.GE, la, rg)}},
		{"float<=float", []expr.Expr{expr.NewCmp(expr.LE, lf, rg)}},
		{"float<>float", []expr.Expr{expr.NewCmp(expr.NE, rg, lf)}},
		{"string<string", []expr.Expr{expr.NewCmp(expr.LT, ls, ru)}},
		{"build-only", []expr.Expr{expr.NewCmp(expr.GT, rb, expr.IntLit(0))}},
		{"non-kernel", []expr.Expr{nonKernel}},
		{"all", []expr.Expr{expr.NewCmp(expr.GE, rb, expr.IntLit(-1)), expr.NewCmp(expr.LT, la, rb), nonKernel, expr.NewCmp(expr.LE, lf, rg)}},
	}
	for _, build := range []string{"unique", "dup"} {
		for _, res := range residuals {
			for _, jt := range []lplan.JoinType{lplan.JoinInner, lplan.JoinLeft, lplan.JoinFull} {
				plan := &lplan.Join{L: &lplan.Scan{Alias: "l", Table: l}, R: &lplan.Scan{Alias: "r", Table: tables[build]},
					Type: jt, Method: lplan.JoinHash,
					Preds: append([]expr.Expr{expr.NewCmp(expr.EQ, expr.Col("l", "k"), expr.Col("r", "k"))}, res.preds...)}
				want := wantProbe(t, plan, lRows, builds[build], res.preds)
				oracle, err := Naive(st, plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !BagEqual(&Result{Rows: want}, oracle) {
					t.Fatalf("%s/%s/%s: the expected order is not Naive's bag", build, res.name, jt)
				}
				p, err := Compile(plan)
				if err != nil {
					t.Fatal(err)
				}
				for _, bs := range []int{1, 3, 1024} {
					name := fmt.Sprintf("%s/%s/%s/batch=%d", build, res.name, jt, bs)
					got, lens, err := batchesOf(t, st, p, bs, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if i := sameRows(got, want); i >= 0 {
						t.Fatalf("%s: %d rows, want %d; they differ at row %d", name, len(got), len(want), i)
					}
					if !fullBatches(lens, bs) {
						t.Fatalf("%s: batches of %v rows", name, lens)
					}
				}
			}
		}
	}
}

// wantProbe spells out the rows the hash join plan of l and r must emit
// under preds, in its order, testing preds on each concatenated row.
func wantProbe(t *testing.T, plan *lplan.Join, l, r []types.Row, preds []expr.Expr) []types.Row {
	t.Helper()
	holds, err := naivePreds(preds, plan.L.Schema().Concat(plan.R.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	nulls := make(types.Row, 4)
	matched := make([]bool, len(r))
	var out []types.Row
	for _, lr := range l {
		hit := false
		for ri, rr := range r {
			row := append(lr.Clone(), rr...)
			if lr[0].IsNull() || rr[0].IsNull() || !types.Equal(lr[0], rr[0]) {
				continue
			}
			if ok, err := holds(row, nil); err != nil {
				t.Fatal(err)
			} else if ok {
				hit, matched[ri] = true, true
				out = append(out, row)
			}
		}
		if !hit && plan.Type.Outer() {
			out = append(out, append(lr.Clone(), nulls...))
		}
	}
	for ri, rr := range r {
		if plan.Type == lplan.JoinFull && !matched[ri] {
			out = append(out, append(nulls.Clone(), rr...))
		}
	}
	return out
}

// TestColumnarFinishAgainstNaive aggregates g(k, s, i, f, m) — INT and
// VARCHAR keys with NULLs, INTs, FLOATs with NaN and -0.0, and a column of
// FLOATs, then INTs, then both — by hash and by sort, on every key
// set and none, with every aggregate over every column it takes, under
// Havings no kernel runs and kernels run, and with outputs that are bare
// columns, the same column twice, and computed. At batch sizes 1, 3 and
// 1024 a hash aggregation must emit exactly exec.Naive's rows in its
// order, equal to the bit but for NaN payloads (MIN and MAX keep the first
// of equal values: -0.0 or +0.0, INT 2 or FLOAT 2.0), and a sort
// aggregation Naive's bag. A Having whose `?` is unbound must fail exactly
// when some group reaches the conjunct that reads it, as Naive fails.
func TestColumnarFinishAgainstNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	pick := func(vals []types.Value) types.Value { return vals[rnd.Intn(len(vals))] }
	// m holds FLOATs, then INTs, then both: its pages' vectors are typed,
	// and then mixed, while every group keeps drawing rows.
	mixed := append(append([]types.Value{}, loopInts...), loopFloats...)
	var rows []types.Row
	for i := range 600 {
		k := types.NewInt(int64(rnd.Intn(30)))
		if rnd.Intn(15) == 0 {
			k = types.Null()
		}
		m := pick(mixed)
		switch {
		case i < 200:
			m = pick(loopFloats[:len(loopFloats)-1])
		case i < 400:
			m = pick(loopInts[:len(loopInts)-1])
		}
		rows = append(rows, types.Row{k, pick(loopStrings), pick(loopInts), pick(loopFloats), m})
	}
	st := storage.NewStore(256)
	tbl := loopTable(t, st, "g", []string{"k", "s", "i", "f", "m"},
		map[string]types.Kind{"s": types.KindString, "f": types.KindFloat, "m": types.KindFloat}, rows)
	col := func(c string) expr.Expr { return expr.Col("g", c) }
	out := func(name string) schema.ColID { return schema.ColID{Rel: "v", Name: name} }
	aggs := []expr.Agg{{Kind: expr.AggCountStar, Out: out("n")}}
	for _, c := range []string{"k", "s", "i", "f", "m"} {
		kinds := []expr.AggKind{expr.AggCount, expr.AggMin, expr.AggMax}
		if c != "s" {
			kinds = append(kinds, expr.AggSum, expr.AggAvg)
		}
		for _, k := range kinds {
			aggs = append(aggs, expr.Agg{Kind: k, Arg: col(c), Out: out(fmt.Sprintf("%v_%s", k, c))})
		}
	}
	aggs = append(aggs,
		expr.Agg{Kind: expr.AggMedian, Arg: col("i"), Out: out("med")},
		expr.Agg{Kind: expr.AggSum, Arg: expr.NewArith(expr.Mul, col("i"), expr.IntLit(2)), Out: out("sum2")})
	vcol := func(name string) expr.Expr { return expr.Col("v", name) }
	param := expr.NewParam(0)
	havings := []struct {
		name  string
		preds []expr.Expr
		fails bool // with no parameter bound
	}{
		{"none", nil, false},
		{"kernel", []expr.Expr{expr.NewCmp(expr.GT, vcol("n"), expr.IntLit(12))}, false},
		{"non-kernel", []expr.Expr{expr.Or(expr.NewIsNull(vcol("MIN_f"), false), expr.NewCmp(expr.LT, vcol("MAX_f"), expr.IntLit(3)))}, false},
		{"unbound-unreached", []expr.Expr{expr.NewCmp(expr.GT, vcol("n"), expr.IntLit(1000)), expr.NewCmp(expr.GT, vcol("SUM_i"), param)}, false},
		{"unbound-reached", []expr.Expr{expr.NewCmp(expr.GT, vcol("n"), expr.IntLit(4)), expr.NewCmp(expr.GT, vcol("SUM_i"), param)}, true},
	}
	for _, keys := range [][]string{{"k"}, {"s"}, {"k", "s"}, nil} {
		var groupCols []schema.ColID
		for _, k := range keys {
			groupCols = append(groupCols, schema.ColID{Rel: "g", Name: k})
		}
		outputs := [][]lplan.NamedExpr{nil, {
			{As: out("n"), E: vcol("n")},
			{As: out("mf"), E: vcol("MAX_f")},
			{As: out("n2"), E: vcol("n")},
			{As: out("calc"), E: expr.NewArith(expr.Add, vcol("SUM_i"), vcol("n"))},
			{As: out("mm"), E: vcol("MIN_m")},
		}}
		if len(keys) > 0 {
			outputs[1] = append(outputs[1], lplan.NamedExpr{As: out("key"), E: expr.ColOf(groupCols[0])})
		}
		for _, h := range havings {
			for oi, outs := range outputs {
				for _, method := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
					plan := &lplan.GroupBy{In: &lplan.Scan{Alias: "g", Table: tbl}, GroupCols: groupCols, Aggs: aggs,
						Having: h.preds, Outputs: outs, Method: method}
					want, werr := Naive(st, plan, nil)
					if (werr != nil) != h.fails {
						t.Fatalf("keys %v, having %s: Naive fails with %v", keys, h.name, werr)
					}
					p, err := Compile(plan)
					if err != nil {
						t.Fatal(err)
					}
					for _, bs := range []int{1, 3, 1024} {
						name := fmt.Sprintf("keys=%v/having=%s/outputs=%d/%v/batch=%d", keys, h.name, oi, method, bs)
						got, lens, err := batchesOf(t, st, p, bs, nil)
						if h.fails {
							if err == nil || !strings.Contains(err.Error(), "not bound") {
								t.Fatalf("%s: error %v, want the unbound parameter's", name, err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if method == lplan.AggHash {
							if i := sameRows(got, want.Rows); i >= 0 {
								t.Fatalf("%s: %d rows, want %d; they differ at row %d", name, len(got), len(want.Rows), i)
							}
						} else if !BagEqual(&Result{Rows: got}, want) {
							t.Fatalf("%s: %d rows differ from Naive's %d", name, len(got), len(want.Rows))
						}
						if method == lplan.AggSort && !fullBatches(lens, bs) {
							t.Fatalf("%s: batches of %v rows", name, lens)
						}
					}
				}
			}
		}
	}
}

// TestHashAggregateSpillsMidBatch groups 3 000 rows into 1 500 groups on a
// 2-page budget, which the table crosses in the middle of the first batch
// of 1 024. The groups that stay resident are those whose first rows
// arrived up to and including the row that crossed the budget, whatever
// the batch size: they come out first, in arrival order, then the spilled
// groups partition by partition, in arrival order within each. The page IO
// — the scan's reads and the partitions' writes and reads — is pinned.
func TestHashAggregateSpillsMidBatch(t *testing.T) {
	const n, groups = 3000, 1500
	rnd := rand.New(rand.NewSource(29))
	var rows []types.Row
	for i := range n {
		rows = append(rows, types.Row{types.NewInt(int64(rnd.Intn(groups) * 7)), types.NewInt(int64(i))})
	}
	st := storage.NewStore(2)
	tbl := loopTable(t, st, "g", []string{"k", "v"}, nil, rows)
	plan := &lplan.GroupBy{In: &lplan.Scan{Alias: "g", Table: tbl}, GroupCols: []schema.ColID{{Rel: "g", Name: "k"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggSum, Arg: expr.Col("g", "v"), Out: schema.ColID{Rel: "v", Name: "s"}},
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "n"}},
		},
		Method: lplan.AggHash}
	// The resident groups, row-exact: a group is accounted its key's and
	// its aggregates' width as it starts.
	width := types.Row{types.NewInt(0)}.DiskWidth() + 8*len(plan.Aggs)
	budget, bytes, crossed := 2*storage.PageSize, 0, -1
	seen := map[int64]bool{}
	var resident, spilled []int64
	for i, r := range rows {
		k := r[0].I
		if seen[k] {
			continue
		}
		seen[k] = true
		if crossed >= 0 {
			spilled = append(spilled, k)
			continue
		}
		resident = append(resident, k)
		if bytes += width; bytes > budget {
			crossed = i
		}
	}
	if crossed <= 0 || crossed >= DefaultBatchSize || crossed%DefaultBatchSize == DefaultBatchSize-1 {
		t.Fatalf("the budget is crossed at row %d, not inside the first batch", crossed)
	}
	wantKeys := resident
	for p := range spillPartitions {
		for _, k := range spilled {
			if partitionOf(types.AppendKey(nil, types.NewInt(k))) == p {
				wantKeys = append(wantKeys, k)
			}
		}
	}
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		st.ForceDropCaches()
		before := st.Stats()
		got, err := New(st).WithBatchSize(bs).Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		if io := st.Stats().Sub(before); io != (storage.IOStats{Reads: 31, Writes: 16}) {
			t.Errorf("batch %d: page IO %+v, want 31 reads and 16 writes", bs, io)
		}
		if len(got.Rows) != len(wantKeys) {
			t.Fatalf("batch %d: %d groups, want %d", bs, len(got.Rows), len(wantKeys))
		}
		for i, k := range wantKeys {
			if got.Rows[i][0].I != k {
				t.Fatalf("batch %d: group %d is %v, want key %d (%d groups resident)", bs, i, got.Rows[i], k, len(resident))
			}
		}
	}
}
