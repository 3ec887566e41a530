package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// kernelValues are the values the filter kernels are checked on: every
// kind, NULL included, and the numeric pairs where INT and FLOAT meet — INT
// 2 and FLOAT 2.0, -0.0 and 0.0, INTs above 2^53 beside the FLOAT they
// round to, NaN and an infinity.
func kernelValues() []types.Value {
	const big = int64(1) << 53
	return []types.Value{
		types.Null(),
		types.NewInt(-3), types.NewInt(0), types.NewInt(2), types.NewInt(big), types.NewInt(big + 1), types.NewInt(-big - 1),
		types.NewFloat(2.0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0), types.NewFloat(2.5),
		types.NewFloat(float64(big)), types.NewFloat(math.NaN()), types.NewFloat(math.Inf(-1)),
		types.NewString(""), types.NewString("a"), types.NewString("b"),
		types.NewBool(false), types.NewBool(true),
	}
}

// kernelEnv stores k(id, a, b) with a row for every pair of kernelValues,
// and returns the rows, the table and its store. Columns a and b mix
// kinds, which the catalog would refuse, so the rows go to the file
// directly.
func kernelEnv(t testing.TB) ([]types.Row, *catalog.Table, *storage.Store) {
	vals := kernelValues()
	st := storage.NewStore(256)
	tbl := &catalog.Table{Name: "k", File: st.CreateFile("k"), Schema: schema.Schema{
		{ID: schema.ColID{Rel: "k", Name: "id"}, Type: types.KindInt},
		{ID: schema.ColID{Rel: "k", Name: "a"}, Type: types.KindInt},
		{ID: schema.ColID{Rel: "k", Name: "b"}, Type: types.KindInt},
	}}
	var rows []types.Row
	for _, a := range vals {
		for _, b := range vals {
			row := types.Row{types.NewInt(int64(len(rows))), a, b}
			if err := st.Append(tbl.File, row); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	if err := st.Flush(tbl.File); err != nil {
		t.Fatal(err)
	}
	return rows, tbl, st
}

// kernelCase is a conjunction run under one parameter vector.
type kernelCase struct {
	preds  []expr.Expr
	params []types.Value
}

func (c kernelCase) String() string { return fmt.Sprintf("%v params %v", c.preds, c.params) }

// kernelCases compares column a, under every CmpOp, with column b, with
// each value as a literal and as a `?`, on either side; then runs each
// operator's column compare inside a conjunction with a kernel conjunct and
// one the kernel leaves to the compiled predicate.
func kernelCases() []kernelCase {
	a, b, p := expr.Col("k", "a"), expr.Col("k", "b"), expr.NewParam(0)
	var cases []kernelCase
	one := func(e expr.Expr, params ...types.Value) {
		cases = append(cases, kernelCase{preds: []expr.Expr{e}, params: params})
	}
	for op := expr.EQ; op <= expr.GE; op++ {
		one(expr.NewCmp(op, a, b))
		one(expr.NewCmp(op, b, a))
		for _, v := range kernelValues() {
			one(expr.NewCmp(op, a, expr.Lit(v)))
			one(expr.NewCmp(op, expr.Lit(v), a))
			one(expr.NewCmp(op, a, p), v)
			one(expr.NewCmp(op, p, a), v)
			cases = append(cases, kernelCase{preds: []expr.Expr{
				expr.NewCmp(op, a, b),
				expr.NewCmp(expr.NE, b, p),
				expr.NewNot(expr.NewIsNull(expr.NewArith(expr.Add, a, expr.IntLit(0)), false)),
			}, params: []types.Value{v}})
		}
	}
	return cases
}

// TestFilterKernelsAgainstPredicate runs every kernel case through a
// Filter over an Input leaf and through a scan's filter, at batch sizes 1,
// 7 and 1024, and requires the rows each keeps, in order, to be those on
// which expr.CompilePredicate's row-at-a-time evaluation of every conjunct
// is TRUE. A `?` past the parameter vector must fail with the message the
// compiled predicate gives.
func TestFilterKernelsAgainstPredicate(t *testing.T) {
	rows, tbl, st := kernelEnv(t)
	sch := tbl.Schema
	want := func(c kernelCase) ([]int64, error) {
		var ids []int64
		for _, row := range rows {
			keep := true
			for _, p := range c.preds {
				f, err := expr.CompilePredicate(p, sch)
				if err != nil {
					return nil, err
				}
				ok, err := f(row, c.params)
				if err != nil {
					return nil, err
				}
				if keep = ok; !keep {
					break
				}
			}
			if keep {
				ids = append(ids, row[0].Int())
			}
		}
		return ids, nil
	}
	run := func(c kernelCase, plan lplan.Node, bs int) ([]int64, error) {
		res, err := New(st).WithInput(rows).WithParams(c.params).WithBatchSize(bs).Run(plan)
		if err != nil {
			return nil, err
		}
		var ids []int64
		for _, r := range res.Rows {
			ids = append(ids, r[0].Int())
		}
		return ids, nil
	}
	plans := func(c kernelCase) map[string]lplan.Node {
		return map[string]lplan.Node{
			"filter": &lplan.Filter{In: &lplan.Input{Cols: sch}, Preds: c.preds},
			"scan":   &lplan.Scan{Alias: "k", Table: tbl, Filter: c.preds},
		}
	}
	unbound := expr.NewParam(1)
	cases := append(kernelCases(),
		kernelCase{preds: []expr.Expr{expr.NewCmp(expr.LT, expr.Col("k", "a"), unbound)}, params: []types.Value{types.NewInt(1)}},
		kernelCase{preds: []expr.Expr{expr.NewCmp(expr.GT, unbound, expr.Col("k", "b"))}})
	for _, c := range cases {
		ids, wantErr := want(c)
		for name, plan := range plans(c) {
			for _, bs := range []int{1, 7, DefaultBatchSize} {
				got, err := run(c, plan, bs)
				switch {
				case wantErr != nil:
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s, %s, batch %d: error %v, want %v", c, name, bs, err, wantErr)
					}
				case err != nil:
					t.Fatalf("%s, %s, batch %d: %v", c, name, bs, err)
				case !slices.Equal(got, ids):
					t.Fatalf("%s, %s, batch %d: kept rows %v, want %v", c, name, bs, got, ids)
				}
			}
		}
	}
}

// TestScanFilterReadsTID: a scan filter that reads $tid sees the rowid of
// each row, with and without a projection, as in the reference executor.
func TestScanFilterReadsTID(t *testing.T) {
	_, tbl, st := kernelEnv(t)
	tid := expr.ColOf(schema.ColID{Rel: "k", Name: lplan.TIDColumn})
	for _, proj := range [][]schema.ColID{nil, {{Rel: "k", Name: lplan.TIDColumn}, {Rel: "k", Name: "a"}}} {
		scan := &lplan.Scan{Alias: "k", Table: tbl, WithTID: true, Proj: proj, Filter: []expr.Expr{
			expr.NewCmp(expr.GE, tid, expr.IntLit(100)), expr.NewCmp(expr.EQ, expr.Col("k", "id"), tid),
			expr.NewCmp(expr.LT, tid, expr.IntLit(250))}}
		want, err := Naive(st, scan, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{1, 7, DefaultBatchSize} {
			got, err := New(st).WithBatchSize(bs).Run(scan)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != 150 || !BagEqual(got, want) {
				t.Fatalf("proj %v, batch %d: %d rows, differ from the reference executor's %d", proj, bs, len(got.Rows), len(want.Rows))
			}
		}
	}
}

// TestJoinPairResidualAgainstPredicate joins kernelEnv's table with itself
// on id, so that each row meets only itself, under a residual comparing the
// left row's a with the right row's b, written either way round, for every
// CmpOp (EQ is a second join key, not a residual, and meets NaN, -0.0 and
// INT beside FLOAT in the key table): inner by hash, merge and block nested
// loops, and LEFT by hash and block nested loops, at batch sizes 1, 7 and
// 1024. The matched rows must be those on which the compiled comparison of
// a with b is TRUE, and each run must equal the reference executor's.
func TestJoinPairResidualAgainstPredicate(t *testing.T) {
	rows, tbl, st := kernelEnv(t)
	la, rb := expr.Col("l", "a"), expr.Col("r", "b")
	for op := expr.EQ; op <= expr.GE; op++ {
		f, err := expr.CompilePredicate(expr.NewCmp(op, expr.Col("k", "a"), expr.Col("k", "b")), tbl.Schema)
		if err != nil {
			t.Fatal(err)
		}
		matched := 0
		for _, row := range rows {
			if ok, _ := f(row, nil); ok {
				matched++
			}
		}
		for _, residual := range []expr.Expr{expr.NewCmp(op, la, rb), expr.NewCmp(op.Flip(), rb, la)} {
			for _, m := range []struct {
				typ    lplan.JoinType
				method lplan.JoinMethod
			}{{lplan.JoinInner, lplan.JoinHash}, {lplan.JoinInner, lplan.JoinMerge}, {lplan.JoinInner, lplan.JoinBlockNL},
				{lplan.JoinLeft, lplan.JoinHash}, {lplan.JoinLeft, lplan.JoinBlockNL}} {
				plan := &lplan.Join{L: &lplan.Scan{Alias: "l", Table: tbl}, R: &lplan.Scan{Alias: "r", Table: tbl},
					Type: m.typ, Method: m.method,
					Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("l", "id"), expr.Col("r", "id")), residual}}
				want, err := Naive(st, plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, bs := range []int{1, 7, DefaultBatchSize} {
					got, err := New(st).WithBatchSize(bs).Run(plan)
					if err != nil {
						t.Fatal(err)
					}
					n := 0
					for _, r := range got.Rows {
						if !r[3].IsNull() {
							n++
						}
					}
					if n != matched || !BagEqual(got, want) {
						t.Fatalf("%v %v %v, batch %d: %d pairs match, want %d, or rows differ from the reference executor's",
							residual, m.typ, m.method, bs, n, matched)
					}
				}
			}
		}
	}
}

// BenchmarkScanFilter scans 24 000 rows held in the pool through a filter:
// an INT column against a `?`, a FLOAT column against a `?`, and one column
// against another. Each keeps about half the rows; ns/row is the scan's
// time per stored row.
func BenchmarkScanFilter(b *testing.B) {
	const n = 24000
	st := storage.NewStore(4096)
	tbl := &catalog.Table{Name: "t", File: st.CreateFile("t"), Schema: schema.Schema{
		{ID: schema.ColID{Rel: "t", Name: "i"}, Type: types.KindInt},
		{ID: schema.ColID{Rel: "t", Name: "f"}, Type: types.KindFloat},
		{ID: schema.ColID{Rel: "t", Name: "j"}, Type: types.KindInt},
	}}
	for k := 0; k < n; k++ {
		row := types.Row{types.NewInt(int64(k % 50)), types.NewFloat(float64(k%1000) / 10), types.NewInt(int64(k * 7 % 50))}
		if err := st.Append(tbl.File, row); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Flush(tbl.File); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		pred   expr.Expr
		params []types.Value
	}{
		{"int>?", expr.NewCmp(expr.GT, expr.Col("t", "i"), expr.NewParam(0)), []types.Value{types.NewInt(24)}},
		{"float>?", expr.NewCmp(expr.GT, expr.Col("t", "f"), expr.NewParam(0)), []types.Value{types.NewFloat(49.95)}},
		{"int<int", expr.NewCmp(expr.LT, expr.Col("t", "i"), expr.Col("t", "j")), nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := Compile(&lplan.Scan{Alias: "t", Table: tbl, Filter: []expr.Expr{c.pred}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := New(st).WithParams(c.params).Open(p)
				if err != nil {
					b.Fatal(err)
				}
				for {
					_, ok, err := cur.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
				cur.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
