package core

import (
	"strings"
	"testing"

	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
)

// mustEquiv executes both plans and requires identical result bags.
func mustEquiv(t *testing.T, e *env, a, b lplan.Node, what string) {
	t.Helper()
	ra, err := exec.New(e.store).Run(a)
	if err != nil {
		t.Fatalf("%s: run original: %v\n%s", what, err, lplan.Format(a))
	}
	rb, err := exec.New(e.store).Run(b)
	if err != nil {
		t.Fatalf("%s: run merged: %v\n%s", what, err, lplan.Format(b))
	}
	if !exec.BagEqual(ra, rb) {
		t.Fatalf("%s: results differ (%d vs %d rows)\noriginal:\n%smerged:\n%s",
			what, len(ra.Rows), len(rb.Rows), lplan.Format(a), lplan.Format(b))
	}
}

// chain builds G_outer(G_inner(emp)): inner sums salary per (dno, age),
// outer re-aggregates per dno.
func chain(e *env, outerKind, innerKind expr.AggKind) *lplan.GroupBy {
	innerArg := expr.Expr(expr.Col("e", "sal"))
	if innerKind == expr.AggCountStar {
		innerArg = nil
	}
	inner := &lplan.GroupBy{
		In:        &lplan.Scan{Alias: "e", Table: e.emp},
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}, {Rel: "e", Name: "age"}},
		Aggs:      []expr.Agg{{Kind: innerKind, Arg: innerArg, Out: schema.ColID{Rel: "i", Name: "v"}}},
	}
	return &lplan.GroupBy{
		In:        inner,
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: outerKind, Arg: expr.Col("i", "v"),
			Out: schema.ColID{Rel: "o", Name: "w"}}},
	}
}

func TestMergeGroupBysEquivalence(t *testing.T) {
	cases := []struct {
		name         string
		outer, inner expr.AggKind
	}{
		{"sum-of-sum", expr.AggSum, expr.AggSum},
		{"sum-of-count", expr.AggSum, expr.AggCount},
		{"sum-of-countstar", expr.AggSum, expr.AggCountStar},
		{"min-of-min", expr.AggMin, expr.AggMin},
		{"max-of-max", expr.AggMax, expr.AggMax},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, 31, 600, 7)
			g := chain(e, c.outer, c.inner)
			merged, err := mergeGroupBys(g)
			if err != nil {
				t.Fatalf("MergeGroupBys: %v", err)
			}
			// The merged tree must have a single group-by.
			if _, stillNested := merged.In.(*lplan.GroupBy); stillNested {
				t.Fatalf("still nested:\n%s", lplan.Format(merged))
			}
			mustEquiv(t, e, g, merged, c.name)
		})
	}
}

func TestMergeGroupBysWithHavingAndOutputs(t *testing.T) {
	e := newEnv(t, 32, 500, 6)
	g := chain(e, expr.AggSum, expr.AggSum)
	g.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("o", "w"), expr.IntLit(100))}
	g.Outputs = []lplan.NamedExpr{
		{E: expr.Col("e", "dno"), As: schema.ColID{Rel: "r", Name: "dno"}},
		{E: expr.NewArith(expr.Div, expr.Col("o", "w"), expr.IntLit(2)), As: schema.ColID{Rel: "r", Name: "half"}},
	}
	merged, err := mergeGroupBys(g)
	if err != nil {
		t.Fatal(err)
	}
	mustEquiv(t, e, g, merged, "merge with having/outputs")
}

func TestMergeGroupBysRenamedInnerOutputs(t *testing.T) {
	e := newEnv(t, 33, 400, 5)
	inner := &lplan.GroupBy{
		In:        &lplan.Scan{Alias: "e", Table: e.emp},
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}, {Rel: "e", Name: "age"}},
		Aggs:      []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "i", Name: "v"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e", "dno"), As: schema.ColID{Rel: "x", Name: "d"}},
			{E: expr.Col("i", "v"), As: schema.ColID{Rel: "x", Name: "s"}},
		},
	}
	outer := &lplan.GroupBy{
		In:        inner,
		GroupCols: []schema.ColID{{Rel: "x", Name: "d"}},
		Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("x", "s"),
			Out: schema.ColID{Rel: "o", Name: "w"}}},
	}
	merged, err := mergeGroupBys(outer)
	if err != nil {
		t.Fatal(err)
	}
	mustEquiv(t, e, outer, merged, "renamed inner outputs")
}

func TestMergeGroupBysRejections(t *testing.T) {
	e := newEnv(t, 34, 100, 4)

	// Not a group-by input.
	plain := &lplan.GroupBy{
		In:        &lplan.Scan{Alias: "e", Table: e.emp},
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs:      []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "o", Name: "w"}}},
	}
	if _, err := mergeGroupBys(plain); err == nil {
		t.Errorf("non-nested merge accepted")
	}

	// AVG of AVG is not a coalescing pair.
	bad := chain(e, expr.AggAvg, expr.AggAvg)
	if _, err := mergeGroupBys(bad); err == nil || !strings.Contains(err.Error(), "coalesce") {
		t.Errorf("AVG∘AVG accepted: %v", err)
	}

	// SUM over an inner *grouping* column is not a coalescing chain.
	inner := &lplan.GroupBy{
		In:        &lplan.Scan{Alias: "e", Table: e.emp},
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}, {Rel: "e", Name: "sal"}},
		Aggs:      []expr.Agg{{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "i", Name: "c"}}},
	}
	overGroup := &lplan.GroupBy{
		In:        inner,
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs:      []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "o", Name: "w"}}},
	}
	if _, err := mergeGroupBys(overGroup); err == nil {
		t.Errorf("sum over inner grouping column accepted (would change semantics)")
	}

	// Inner having blocks the merge.
	withHaving := chain(e, expr.AggSum, expr.AggSum)
	withHaving.In.(*lplan.GroupBy).Having = []expr.Expr{
		expr.NewCmp(expr.GT, expr.Col("i", "v"), expr.IntLit(0)),
	}
	if _, err := mergeGroupBys(withHaving); err == nil {
		t.Errorf("inner having accepted")
	}

	// Outer grouping over an inner aggregate output.
	overAgg := chain(e, expr.AggSum, expr.AggSum)
	overAgg.GroupCols = []schema.ColID{{Rel: "i", Name: "v"}}
	if _, err := mergeGroupBys(overAgg); err == nil {
		t.Errorf("grouping by inner aggregate accepted")
	}
}
