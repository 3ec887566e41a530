package exec

import (
	"math/rand"
	"testing"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// TestInputLeaf: a GroupBy over an Input leaf, compiled once and run on an
// in-memory executor over different rows, answers what the same GroupBy
// over a scan of those rows answers in the reference executor — the same
// rows in the same, first-seen order — at batch sizes 1 and 1024. The group
// table is far beyond the 4-page pool, where a store-backed executor would
// spill and emit the spilled groups last.
func TestInputLeaf(t *testing.T) {
	e := newEnv(t, 4, 3000, 1500)
	groupBy := func(in lplan.Node) *lplan.GroupBy {
		return &lplan.GroupBy{
			In:        &lplan.Filter{In: in, Preds: []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(50))}},
			GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
			Aggs: []expr.Agg{
				{Kind: expr.AggSum, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "g", Name: "s"}},
				{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}},
				{Kind: expr.AggMin, Arg: expr.Col("e", "age"), Out: schema.ColID{Rel: "g", Name: "a"}},
			},
			Method: lplan.AggHash,
		}
	}
	all, err := Naive(e.store, e.scanEmp("e"), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(groupBy(&lplan.Input{Cols: e.emp.Schema.Rename("e")}))
	if err != nil {
		t.Fatal(err)
	}
	// The table holds eno = 0, 1, ... in scan order, so its first n rows are
	// the ones with eno < n.
	for _, n := range []int{3000, 1200, 0} {
		scan := e.scanEmp("e")
		scan.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "eno"), expr.IntLit(int64(n)))}
		want, err := Naive(e.store, groupBy(scan), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{1, DefaultBatchSize} {
			got, err := NewInMemory().WithInput(all.Rows[:n]).WithBatchSize(bs).RunProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%d rows, batch %d: %d groups, want %d", n, bs, len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				if types.CompareRows(got.Rows[i], want.Rows[i], []int{0, 1, 2, 3}) != 0 {
					t.Fatalf("%d rows, batch %d: group %d = %v, want %v", n, bs, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// TestInputGroupByStaysDense: view maintenance's merge is a hash GroupBy
// over an Input leaf with no group estimate. It presizes its key table
// from the run's row count, so 5 000 distinct INT keys, shuffled, stay in
// the dense layout; sized for none, the table left it once the keys seen
// spanned more than denseSpan allows for the entries so far. The groups
// come out complete, each in first-seen order.
func TestInputGroupByStaysDense(t *testing.T) {
	const groups = 5000
	col := schema.ColID{Rel: "m", Name: "k"}
	p, err := Compile(&lplan.GroupBy{
		In:        &lplan.Input{Cols: schema.Schema{{ID: col, Type: types.KindInt}}},
		GroupCols: []schema.ColID{col},
		Aggs:      []expr.Agg{{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}}},
		Method:    lplan.AggHash,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, groups)
	for i, k := range rand.New(rand.NewSource(5)).Perm(groups) {
		rows[i] = types.Row{types.NewInt(int64(k))}
	}
	cur, err := NewInMemory().WithInput(rows).Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if tab := cur.it.(*hashAggIter).tab; !tab.Dense() || tab.Len() != groups {
		t.Fatalf("key table dense=%v with %d entries, want the dense layout with %d", tab.Dense(), tab.Len(), groups)
	}
	for i := 0; ; i++ {
		row, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != groups {
				t.Fatalf("%d groups, want %d", i, groups)
			}
			break
		}
		if !types.Equal(row[0], rows[i][0]) || row[1].I != 1 {
			t.Fatalf("group %d = %v, want %v with count 1", i, row, rows[i][0])
		}
	}
}
