package core

import (
	"math"
	"testing"

	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// runAllModes checks, under every mode, every complete plan the search
// finalizes — the W sets and placements that lose on cost as much as the
// winner — against the query as written (checkAlternatives), and the
// never-worse guarantee against the traditional plan. It returns the
// reference result.
func runAllModes(t *testing.T, e *env, q *qblock.Query) *exec.Result {
	t.Helper()
	opts := DefaultOptions()
	opts.PoolPages = 8
	ref := asWritten(t, e.store, q)
	var tradCost float64
	for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
		opts.Mode = mode
		cheapest := math.Inf(1)
		for _, a := range checkAlternatives(t, e.store, q, opts, ref) {
			cheapest = min(cheapest, a.Cost)
		}
		if mode == ModeTraditional {
			tradCost = cheapest
		} else if cheapest > tradCost+1e-9 {
			t.Fatalf("[%v] cost %g worse than traditional %g", mode, cheapest, tradCost)
		}
	}
	return ref
}

// TestPullUpViewWithHaving: a view carrying its own HAVING clause must
// filter the same groups whether evaluated as written or pulled up (the Φ
// groups are finer, but every sub-group sees the complete original group's
// rows, so the Having verdict is unchanged).
func TestPullUpViewWithHaving(t *testing.T) {
	e := newEnv(t, 51, 8000, 600)
	view := &qblock.AggView{
		Alias: "b",
		Block: &qblock.Block{
			Rels:      []*qblock.Rel{{Alias: "e2", Table: e.emp}},
			GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
			Aggs: []expr.Agg{
				{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"), Out: schema.ColID{Rel: "b", Name: "asal"}},
				{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "b", Name: "cnt"}},
			},
			Having: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("b", "cnt"), expr.IntLit(8))},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
				{E: expr.Col("b", "asal"), As: schema.ColID{Rel: "b", Name: "asal"}},
				{E: expr.Col("b", "cnt"), As: schema.ColID{Rel: "b", Name: "cnt"}},
			},
		},
	}
	top := &qblock.Block{
		Rels: []*qblock.Rel{{Alias: "e1", Table: e.emp}},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
			expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal")),
			expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(20)),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "sal"), As: schema.ColID{Name: "sal"}},
			{E: expr.Col("b", "cnt"), As: schema.ColID{Name: "cnt"}},
		},
	}
	res := runAllModes(t, e, &qblock.Query{Views: []*qblock.AggView{view}, Top: top})
	for _, r := range res.Rows {
		if r[1].Int() <= 8 {
			t.Fatalf("view having leaked a group: %v", r)
		}
	}
}

// TestScalarViewPullUp: a view with aggregates but no grouping columns (a
// single-row view) cross-joined with the top block.
func TestScalarViewPullUp(t *testing.T) {
	e := newEnv(t, 52, 5000, 80)
	view := &qblock.AggView{
		Alias: "m",
		Block: &qblock.Block{
			Rels: []*qblock.Rel{{Alias: "e2", Table: e.emp}},
			Aggs: []expr.Agg{{Kind: expr.AggMax, Arg: expr.Col("e2", "sal"),
				Out: schema.ColID{Rel: "m", Name: "maxsal"}}},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("m", "maxsal"), As: schema.ColID{Rel: "m", Name: "maxsal"}},
			},
		},
	}
	top := &qblock.Block{
		Rels: []*qblock.Rel{{Alias: "e1", Table: e.emp}},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.GT, expr.NewArith(expr.Mul, expr.Col("e1", "sal"), expr.IntLit(2)),
				expr.Col("m", "maxsal")),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "eno"), As: schema.ColID{Name: "eno"}},
		},
	}
	res := runAllModes(t, e, &qblock.Query{Views: []*qblock.AggView{view}, Top: top})
	if len(res.Rows) == 0 {
		t.Fatalf("no rows; fixture too small")
	}
}

// TestViewOverKeylessTable: the view's inner relation has no primary key,
// so pull-up must fall back to tuple ids when the pulled relation is
// keyless too.
func TestViewOverKeylessTable(t *testing.T) {
	e := newEnv(t, 53, 2000, 50)
	nokey, err := e.cat.CreateTable("nokey", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "w"}, Type: types.KindFloat},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		if err := e.cat.Insert(nokey, types.Row{
			types.NewInt(int64(i % 50)), types.NewFloat(float64(i % 7)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.cat.Analyze(nokey); err != nil {
		t.Fatal(err)
	}
	view := &qblock.AggView{
		Alias: "v",
		Block: &qblock.Block{
			Rels:      []*qblock.Rel{{Alias: "n2", Table: nokey}},
			GroupCols: []schema.ColID{{Rel: "n2", Name: "dno"}},
			Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("n2", "w"),
				Out: schema.ColID{Rel: "v", Name: "tw"}}},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("n2", "dno"), As: schema.ColID{Rel: "v", Name: "dno"}},
				{E: expr.Col("v", "tw"), As: schema.ColID{Rel: "v", Name: "tw"}},
			},
		},
	}
	top := &qblock.Block{
		Rels: []*qblock.Rel{{Alias: "n1", Table: nokey}},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("n1", "dno"), expr.Col("v", "dno")),
			expr.NewCmp(expr.GT, expr.Col("n1", "w"), expr.Col("v", "tw")),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("n1", "w"), As: schema.ColID{Name: "w"}},
		},
	}
	runAllModes(t, e, &qblock.Query{Views: []*qblock.AggView{view}, Top: top})
}

// TestTwoViewsSharedPullTarget: two views compete for the same pull
// candidate; disjointness must hold and results stay correct.
func TestTwoViewsSharedPullTarget(t *testing.T) {
	e := newEnv(t, 54, 6000, 400)
	mkView := func(alias string, kind expr.AggKind) *qblock.AggView {
		inner := alias + "$in"
		return &qblock.AggView{
			Alias: alias,
			Block: &qblock.Block{
				Rels:      []*qblock.Rel{{Alias: inner, Table: e.emp}},
				GroupCols: []schema.ColID{{Rel: inner, Name: "dno"}},
				Aggs: []expr.Agg{{Kind: kind, Arg: expr.Col(inner, "sal"),
					Out: schema.ColID{Rel: alias, Name: "v"}}},
				Outputs: []lplan.NamedExpr{
					{E: expr.Col(inner, "dno"), As: schema.ColID{Rel: alias, Name: "dno"}},
					{E: expr.Col(alias, "v"), As: schema.ColID{Rel: alias, Name: "v"}},
				},
			},
		}
	}
	v1 := mkView("v1", expr.AggMin)
	v2 := mkView("v2", expr.AggMax)
	top := &qblock.Block{
		Rels: []*qblock.Rel{{Alias: "e1", Table: e.emp}},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("v1", "dno")),
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("v2", "dno")),
			expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(21)),
			expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("v1", "v")),
			expr.NewCmp(expr.LT, expr.Col("e1", "sal"), expr.Col("v2", "v")),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "eno"), As: schema.ColID{Name: "eno"}},
		},
	}
	runAllModes(t, e, &qblock.Query{Views: []*qblock.AggView{v1, v2}, Top: top})
}

// TestViewWithMultiRelationCore: the view itself joins two relations, one
// of which is movable (V − V′), exercising hoisting plus pull-up together.
func TestViewWithMultiRelationCore(t *testing.T) {
	e := newEnv(t, 55, 6000, 300)
	view := &qblock.AggView{
		Alias: "b",
		Block: &qblock.Block{
			Rels: []*qblock.Rel{
				{Alias: "e2", Table: e.emp},
				{Alias: "d2", Table: e.dept},
			},
			Conjs: []expr.Expr{
				expr.NewCmp(expr.EQ, expr.Col("e2", "dno"), expr.Col("d2", "dno")),
				expr.NewCmp(expr.LT, expr.Col("d2", "budget"), expr.FloatLit(800000)),
			},
			GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
			Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"),
				Out: schema.ColID{Rel: "b", Name: "asal"}}},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
				{E: expr.Col("b", "asal"), As: schema.ColID{Rel: "b", Name: "asal"}},
			},
		},
	}
	top := &qblock.Block{
		Rels: []*qblock.Rel{{Alias: "e1", Table: e.emp}},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
			expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal")),
			expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(23)),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "sal"), As: schema.ColID{Name: "sal"}},
			{E: expr.Col("b", "asal"), As: schema.ColID{Name: "asal"}},
		},
	}
	runAllModes(t, e, &qblock.Query{Views: []*qblock.AggView{view}, Top: top})
}

// TestGroupedTopOverPulledView: G0 aggregates over the view's aggregate
// output while the pull-up machinery reorders underneath.
func TestGroupedTopOverPulledView(t *testing.T) {
	e := newEnv(t, 56, 6000, 500)
	view := &qblock.AggView{
		Alias: "b",
		Block: &qblock.Block{
			Rels:      []*qblock.Rel{{Alias: "e2", Table: e.emp}},
			GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
			Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e2", "sal"),
				Out: schema.ColID{Rel: "b", Name: "tot"}}},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
				{E: expr.Col("b", "tot"), As: schema.ColID{Rel: "b", Name: "tot"}},
			},
		},
	}
	top := &qblock.Block{
		Rels: []*qblock.Rel{{Alias: "e1", Table: e.emp}},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
			expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(25)),
		},
		GroupCols: []schema.ColID{{Rel: "e1", Name: "age"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggMax, Arg: expr.Col("b", "tot"), Out: schema.ColID{Rel: "g", Name: "m"}},
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}},
		},
		Having: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("g", "n"), expr.IntLit(3))},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "age"), As: schema.ColID{Name: "age"}},
			{E: expr.Col("g", "m"), As: schema.ColID{Name: "m"}},
		},
	}
	runAllModes(t, e, &qblock.Query{Views: []*qblock.AggView{view}, Top: top})
}

// TestThreeViews: the multi-view algorithm generalizes beyond Figure 5's
// two views; three views with shared pull candidates must stay correct and
// keep enumeration bounded.
func TestThreeViews(t *testing.T) {
	e := newEnv(t, 57, 5000, 200)
	mkView := func(alias string, kind expr.AggKind) *qblock.AggView {
		inner := alias + "$in"
		return &qblock.AggView{
			Alias: alias,
			Block: &qblock.Block{
				Rels:      []*qblock.Rel{{Alias: inner, Table: e.emp}},
				GroupCols: []schema.ColID{{Rel: inner, Name: "dno"}},
				Aggs: []expr.Agg{{Kind: kind, Arg: expr.Col(inner, "sal"),
					Out: schema.ColID{Rel: alias, Name: "v"}}},
				Outputs: []lplan.NamedExpr{
					{E: expr.Col(inner, "dno"), As: schema.ColID{Rel: alias, Name: "dno"}},
					{E: expr.Col(alias, "v"), As: schema.ColID{Rel: alias, Name: "v"}},
				},
			},
		}
	}
	v1 := mkView("w1", expr.AggMin)
	v2 := mkView("w2", expr.AggMax)
	v3 := mkView("w3", expr.AggAvg)
	top := &qblock.Block{
		Rels: []*qblock.Rel{
			{Alias: "e1", Table: e.emp},
			{Alias: "d", Table: e.dept},
		},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("w1", "dno")),
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("w2", "dno")),
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("w3", "dno")),
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("d", "dno")),
			expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(22)),
			expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("w3", "v")),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "eno"), As: schema.ColID{Name: "eno"}},
			{E: expr.Col("w1", "v"), As: schema.ColID{Name: "lo"}},
			{E: expr.Col("w2", "v"), As: schema.ColID{Name: "hi"}},
		},
	}
	q := &qblock.Query{Views: []*qblock.AggView{v1, v2, v3}, Top: top}
	runAllModes(t, e, q)

	// Enumeration must stay bounded under the default restrictions.
	opts := DefaultOptions()
	opts.PoolPages = 8
	plan, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Phase2Runs > 200 {
		t.Fatalf("combination explosion: %d phase-2 runs", plan.Stats.Phase2Runs)
	}
}
