package exec

import (
	"testing"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
)

func TestEmptyInputsThroughOperators(t *testing.T) {
	e := newEnv(t, 16, 50, 5)
	empty := e.scanEmp("e")
	empty.Filter = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e", "age"), expr.IntLit(9999))}

	// Join with an empty left input, each method.
	for _, m := range []lplan.JoinMethod{lplan.JoinHash, lplan.JoinBlockNL, lplan.JoinMerge} {
		j := &lplan.Join{L: empty, R: e.scanDept("d"),
			Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
			Method: m}
		res, err := New(e.store).Run(j)
		if err != nil {
			t.Fatalf("[%v] %v", m, err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("[%v] rows = %d", m, len(res.Rows))
		}
	}

	// Grouped empty input: zero groups (non-scalar).
	g := &lplan.GroupBy{In: empty,
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs:      []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "v", Name: "s"}}},
		Method:    lplan.AggSort}
	res := runBoth(t, e, g)
	if len(res.Rows) != 0 {
		t.Fatalf("empty grouped rows = %d", len(res.Rows))
	}
}

func TestSortAggWithHavingAndOutputs(t *testing.T) {
	e := newEnv(t, 16, 800, 10)
	g := groupByDno(e, lplan.AggSort)
	g.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("v", "cnt"), expr.IntLit(60))}
	g.Outputs = []lplan.NamedExpr{
		{E: expr.Col("v", "cnt"), As: schema.ColID{Rel: "o", Name: "n"}},
	}
	res := runBoth(t, e, g)
	for _, r := range res.Rows {
		if r[0].Int() <= 60 {
			t.Fatalf("having violated: %v", r)
		}
	}
}

func TestScalarSortAggregate(t *testing.T) {
	e := newEnv(t, 16, 300, 5)
	g := &lplan.GroupBy{
		In: e.scanEmp("e"),
		Aggs: []expr.Agg{
			{Kind: expr.AggSum, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "v", Name: "s"}},
		},
		Method: lplan.AggSort,
	}
	res := runBoth(t, e, g)
	if len(res.Rows) != 1 {
		t.Fatalf("scalar agg rows = %d", len(res.Rows))
	}
}

// TestIndexNLErrors checks the join preconditions the executor enforces.
// Index nested loops is gone; the merge-join check it also held remains.
func TestIndexNLErrors(t *testing.T) {
	e := newEnv(t, 16, 50, 5)
	// No equi predicate for merge join.
	j := &lplan.Join{L: e.scanDept("d"), R: e.scanEmp("e"),
		Preds:  []expr.Expr{expr.NewCmp(expr.LT, expr.Col("d", "dno"), expr.Col("e", "dno"))},
		Method: lplan.JoinMerge}
	if _, err := New(e.store).Run(j); err == nil {
		t.Errorf("merge join without equi predicate accepted")
	}
}

func TestDeepPipelineSpillingEverywhere(t *testing.T) {
	// A three-level plan under a tiny pool: external sort feeding a merge
	// join feeding a spilling aggregate, all verified against the oracle.
	e := newEnv(t, 2, 4000, 400)
	j := &lplan.Join{
		L:      e.scanEmp("a"),
		R:      e.scanEmp("b"),
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("a", "dno"), expr.Col("b", "dno"))},
		Method: lplan.JoinMerge,
	}
	g := &lplan.GroupBy{
		In:        j,
		GroupCols: []schema.ColID{{Rel: "a", Name: "dno"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "n"}},
			{Kind: expr.AggMax, Arg: expr.Col("b", "sal"), Out: schema.ColID{Rel: "v", Name: "m"}},
		},
		Method: lplan.AggHash,
	}
	res := runBoth(t, e, g)
	if len(res.Rows) != 400 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
}

func TestRunRejectsUnknownMethod(t *testing.T) {
	e := newEnv(t, 16, 10, 2)
	g := groupByDno(e, lplan.AggMethod(99))
	if _, err := New(e.store).Run(g); err == nil {
		t.Errorf("unknown agg method accepted")
	}
	j := &lplan.Join{L: e.scanEmp("a"), R: e.scanDept("d"), Method: lplan.JoinMethod(99)}
	if _, err := New(e.store).Run(j); err == nil {
		t.Errorf("unknown join method accepted")
	}
}

func TestGroupByExpressionArgument(t *testing.T) {
	e := newEnv(t, 16, 300, 8)
	g := &lplan.GroupBy{
		In:        e.scanEmp("e"),
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggSum,
			Arg: expr.NewArith(expr.Mul, expr.Col("e", "sal"), expr.IntLit(2)),
			Out: schema.ColID{Rel: "v", Name: "dbl"}}},
		Method: lplan.AggHash,
	}
	runBoth(t, e, g)
}

func TestProjectOverJoin(t *testing.T) {
	e := newEnv(t, 16, 200, 6)
	j := &lplan.Join{L: e.scanEmp("e"), R: e.scanDept("d"),
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
		Method: lplan.JoinHash}
	p := &lplan.Project{In: j, Items: []lplan.NamedExpr{
		{E: expr.NewArith(expr.Add, expr.Col("e", "sal"), expr.Col("d", "budget")), As: schema.ColID{Name: "tot"}},
	}}
	res := runBoth(t, e, p)
	if len(res.Schema) != 1 {
		t.Fatalf("schema = %s", res.Schema)
	}
}
