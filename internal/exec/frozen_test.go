package exec

import (
	"testing"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/obs"
	"aggview/internal/schema"
)

// checkLabels requires every operator of the tree to have run under the
// label its twin in the reference tree describes itself with.
func checkLabels(t *testing.T, col *obs.Collector, n, ref lplan.Node) {
	t.Helper()
	if st := col.Op(n); st == nil || st.Label != ref.Describe() {
		t.Errorf("operator %q ran as %+v", ref.Describe(), st)
	}
	for i, c := range n.Children() {
		checkLabels(t, col, c, ref.Children()[i])
	}
}

// TestFrozenPlanOpensWithLessWork: opening a cursor validates the plan and
// labels every operator. On a frozen plan both were done once, at Freeze, so
// an open allocates fewer objects than on an unfrozen copy of the same tree
// — which is validated and described on every open, exactly as before —
// and the labels a run reports are the same Describe() lines either way.
func TestFrozenPlanOpensWithLessWork(t *testing.T) {
	e := newEnv(t, 64, 300, 10)
	build := func() lplan.Node {
		s := e.scanEmp("e")
		s.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(60))}
		return &lplan.Filter{
			In: &lplan.GroupBy{
				In: &lplan.Join{
					L: s, R: e.scanDept("d"), Method: lplan.JoinHash,
					Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
				},
				GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
				Aggs: []expr.Agg{
					{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "g", Name: "asal"}},
					{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}},
				},
				Having: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("g", "n"), expr.IntLit(1))},
				Method: lplan.AggHash,
			},
			Preds: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("g", "asal"), expr.FloatLit(0))},
		}
	}
	unfrozen, frozen := build(), build()
	lplan.Freeze(frozen)

	open := func(n lplan.Node) *obs.Collector {
		col := obs.NewCollector()
		cur, err := New(e.store).WithCollector(col).OpenCursor(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		return col
	}
	reference := build() // never opened, never frozen
	checkLabels(t, open(unfrozen), unfrozen, reference)
	checkLabels(t, open(frozen), frozen, reference)
	perUnfrozen := testing.AllocsPerRun(20, func() { open(unfrozen) })
	perFrozen := testing.AllocsPerRun(20, func() { open(frozen) })
	t.Logf("objects per open+close: unfrozen %.0f, frozen %.0f", perUnfrozen, perFrozen)
	if perFrozen >= perUnfrozen {
		t.Errorf("a frozen plan allocated %.0f objects per open, an unfrozen one %.0f: validation or labels are redone per run",
			perFrozen, perUnfrozen)
	}

	// Freezing memoizes a verdict, never grants one: an illegal tree stays
	// rejected after Freeze, by the executor and by the oracle.
	bad := e.scanEmp("e")
	bad.Filter = []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("zz", "x"), expr.IntLit(1))}
	lplan.Freeze(bad)
	if _, err := New(e.store).Run(bad); err == nil {
		t.Errorf("executor accepted an invalid frozen plan")
	}
	if _, err := Naive(e.store, bad); err == nil {
		t.Errorf("oracle accepted an invalid frozen plan")
	}
}
