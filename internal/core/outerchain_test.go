package core

import (
	"math/rand"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// Outer-chain planner tests. The optimizer's fixed-chain path classifies
// WHERE conjuncts (scan filter / inner-step predicate / residual above the
// chain) and picks physical methods; the correctness oracle is a canonical
// plan that takes no such liberties — full scans, ON conditions only on the
// joins, every WHERE conjunct in one Filter above the whole chain — run
// through the naive executor.

// outerEnv is emp/dept plus proj(pno, dno, cost), with NULL and dangling
// dnos in both emp and proj.
type outerEnv struct {
	store *storage.Store
	cat   *catalog.Catalog
	emp   *catalog.Table
	dept  *catalog.Table
	proj  *catalog.Table
}

func newOuterEnv(t *testing.T, nEmp, nDept, nProj int) *outerEnv {
	t.Helper()
	st := storage.NewStore(64)
	c := catalog.New(st)
	emp, err := c.CreateTable("emp", []schema.Column{
		{ID: schema.ColID{Name: "eno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "sal"}, Type: types.KindFloat},
		{ID: schema.ColID{Name: "age"}, Type: types.KindInt},
	}, []string{"eno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dept, err := c.CreateTable("dept", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "budget"}, Type: types.KindFloat},
	}, []string{"dno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := c.CreateTable("proj", []schema.Column{
		{ID: schema.ColID{Name: "pno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "cost"}, Type: types.KindFloat},
	}, []string{"pno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	maybeNullDno := func(span int) types.Value {
		if r.Intn(6) == 0 {
			return types.Null()
		}
		return types.NewInt(int64(r.Intn(span))) // span > nDept ⇒ dangling keys
	}
	for i := 0; i < nEmp; i++ {
		if err := c.Insert(emp, types.Row{
			types.NewInt(int64(i)),
			maybeNullDno(nDept + nDept/3),
			types.NewFloat(float64(1000 + r.Intn(3000))),
			types.NewInt(int64(18 + r.Intn(50))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nDept; i++ {
		if err := c.Insert(dept, types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(100000 + r.Intn(900000))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nProj; i++ {
		if err := c.Insert(proj, types.Row{
			types.NewInt(int64(i)),
			maybeNullDno(nDept + nDept/3),
			types.NewFloat(float64(10 + r.Intn(500))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []*catalog.Table{emp, dept, proj} {
		if err := c.Analyze(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return &outerEnv{store: st, cat: c, emp: emp, dept: dept, proj: proj}
}

// outerChainQuery builds: emp e INNER JOIN dept d (pred in WHERE, the
// binder's desugaring) LEFT JOIN proj p ON d.dno = p.dno, WHERE e.age < 40
// (never-padded single alias → scan filter) AND e.dno = d.dno (inner-step
// predicate) AND p.cost > 100 when withPaddedFilter (references the padded
// alias → must stay residual above the chain). Optionally grouped by d.dno
// with the COUNT-bug pair.
func outerChainQuery(e *outerEnv, withPaddedFilter, grouped bool) *qblock.Query {
	top := &qblock.Block{
		Rels: []*qblock.Rel{
			{Alias: "e", Table: e.emp},
			{Alias: "d", Table: e.dept},
			{Alias: "p", Table: e.proj},
		},
		OuterSteps: []qblock.OuterStep{
			{Alias: "d", Type: lplan.JoinInner},
			{Alias: "p", Type: lplan.JoinLeft,
				On: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("d", "dno"), expr.Col("p", "dno"))}},
		},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(40)),
			expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno")),
		},
	}
	if withPaddedFilter {
		top.Conjs = append(top.Conjs,
			expr.NewCmp(expr.GT, expr.Col("p", "cost"), expr.FloatLit(100)))
	}
	if grouped {
		top.GroupCols = []schema.ColID{{Rel: "d", Name: "dno"}}
		top.Aggs = []expr.Agg{
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "star"}},
			{Kind: expr.AggCount, Arg: expr.Col("p", "pno"), Out: schema.ColID{Rel: "v", Name: "cp"}},
			{Kind: expr.AggSum, Arg: expr.Col("p", "cost"), Out: schema.ColID{Rel: "v", Name: "sc"}},
		}
		top.Outputs = []lplan.NamedExpr{
			{E: expr.Col("d", "dno"), As: schema.ColID{Rel: "", Name: "dno"}},
			{E: expr.Col("v", "star"), As: schema.ColID{Rel: "", Name: "star"}},
			{E: expr.Col("v", "cp"), As: schema.ColID{Rel: "", Name: "cp"}},
			{E: expr.Col("v", "sc"), As: schema.ColID{Rel: "", Name: "sc"}},
		}
	} else {
		top.Outputs = []lplan.NamedExpr{
			{E: expr.Col("e", "eno"), As: schema.ColID{Rel: "", Name: "eno"}},
			{E: expr.Col("d", "dno"), As: schema.ColID{Rel: "", Name: "dno"}},
			{E: expr.Col("p", "pno"), As: schema.ColID{Rel: "", Name: "pno"}},
		}
	}
	return &qblock.Query{Top: top}
}

// canonicalOuterPlan rebuilds the block with no planner liberties: full
// scans, ON predicates only on the joins, all WHERE conjuncts in a single
// Filter above the chain, the group-by (if any) above that.
func canonicalOuterPlan(e *outerEnv, q *qblock.Query) lplan.Node {
	top := q.Top
	var node lplan.Node = &lplan.Scan{Alias: top.Rels[0].Alias, Table: top.Rels[0].Table}
	for i, step := range top.OuterSteps {
		rel := top.Rels[i+1]
		scan := &lplan.Scan{Alias: rel.Alias, Table: rel.Table}
		if step.Type == lplan.JoinRight {
			// RIGHT is LEFT with the inputs swapped — the definition, applied
			// here independently of the planner's normalization.
			node = &lplan.Join{L: scan, R: node, Type: lplan.JoinLeft, Preds: step.On, Method: lplan.JoinBlockNL}
			continue
		}
		node = &lplan.Join{
			L:      node,
			R:      scan,
			Type:   step.Type,
			Preds:  step.On,
			Method: lplan.JoinBlockNL,
		}
	}
	if len(top.Conjs) > 0 {
		node = &lplan.Filter{In: node, Preds: top.Conjs}
	}
	if top.HasGroupBy() {
		return &lplan.GroupBy{
			In:        node,
			GroupCols: top.GroupCols,
			Aggs:      top.Aggs,
			Having:    top.Having,
			Outputs:   top.Outputs,
			Method:    lplan.AggHash,
		}
	}
	return &lplan.Project{In: node, Items: top.Outputs}
}

// usesHashJoin reports whether any join in the tree runs the hash method.
func usesHashJoin(n lplan.Node) bool {
	switch x := n.(type) {
	case *lplan.Join:
		return x.Method == lplan.JoinHash || usesHashJoin(x.L) || usesHashJoin(x.R)
	case *lplan.Filter:
		return usesHashJoin(x.In)
	case *lplan.Project:
		return usesHashJoin(x.In)
	case *lplan.GroupBy:
		return usesHashJoin(x.In)
	}
	return false
}

// TestOuterChainVsCanonical runs the optimizer's chosen plan against the
// canonical plan's naive-oracle result, across filter/grouping shapes and
// both join-method regimes.
func TestOuterChainVsCanonical(t *testing.T) {
	e := newOuterEnv(t, 600, 15, 120)
	for _, withPaddedFilter := range []bool{false, true} {
		for _, grouped := range []bool{false, true} {
			q := outerChainQuery(e, withPaddedFilter, grouped)
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
			want, err := exec.Naive(e.store, canonicalOuterPlan(e, q), nil)
			if err != nil {
				t.Fatalf("naive canonical: %v", err)
			}
			for _, noHash := range []bool{false, true} {
				opts := DefaultOptions()
				opts.NoHashJoin = noHash
				plan, err := Optimize(q, opts)
				if err != nil {
					t.Fatalf("paddedFilter=%v grouped=%v noHash=%v: Optimize: %v",
						withPaddedFilter, grouped, noHash, err)
				}
				got, err := exec.New(e.store).Run(plan.Root)
				if err != nil {
					t.Fatalf("paddedFilter=%v grouped=%v noHash=%v: Run: %v\n%s",
						withPaddedFilter, grouped, noHash, err, plan.Explain())
				}
				if !exec.BagEqual(got, want) {
					t.Fatalf("paddedFilter=%v grouped=%v noHash=%v: optimized plan diverges from canonical (%d vs %d rows)\n%s",
						withPaddedFilter, grouped, noHash, len(got.Rows), len(want.Rows), plan.Explain())
				}
				if noHash && usesHashJoin(plan.Root) {
					t.Fatalf("NoHashJoin plan still uses a hash join:\n%s", lplan.Format(plan.Root))
				}
			}
		}
	}
}

// TestOuterChainRightAndFullNormalization: RIGHT steps are normalized to
// LEFT by input swap (no JoinRight survives planning), and FULL chains run
// correctly against the canonical oracle.
func TestOuterChainRightAndFullNormalization(t *testing.T) {
	e := newOuterEnv(t, 400, 12, 0)
	for _, jt := range []lplan.JoinType{lplan.JoinRight, lplan.JoinFull} {
		top := &qblock.Block{
			Rels: []*qblock.Rel{
				{Alias: "e", Table: e.emp},
				{Alias: "d", Table: e.dept},
			},
			OuterSteps: []qblock.OuterStep{
				{Alias: "d", Type: jt,
					On: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))}},
			},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e", "eno"), As: schema.ColID{Rel: "", Name: "eno"}},
				{E: expr.Col("d", "dno"), As: schema.ColID{Rel: "", Name: "dno"}},
			},
		}
		q := &qblock.Query{Top: top}
		plan, err := Optimize(q, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", jt, err)
		}
		var sawRight func(n lplan.Node) bool
		sawRight = func(n lplan.Node) bool {
			switch x := n.(type) {
			case *lplan.Join:
				return x.Type == lplan.JoinRight || sawRight(x.L) || sawRight(x.R)
			case *lplan.Filter:
				return sawRight(x.In)
			case *lplan.Project:
				return sawRight(x.In)
			case *lplan.GroupBy:
				return sawRight(x.In)
			}
			return false
		}
		if sawRight(plan.Root) {
			t.Fatalf("%s: JoinRight survived planning:\n%s", jt, lplan.Format(plan.Root))
		}
		got, err := exec.New(e.store).Run(plan.Root)
		if err != nil {
			t.Fatalf("%s: Run: %v", jt, err)
		}
		want, err := exec.Naive(e.store, canonicalOuterPlan(e, q), nil)
		if err != nil {
			t.Fatalf("%s: naive: %v", jt, err)
		}
		if !exec.BagEqual(got, want) {
			t.Fatalf("%s: optimized plan diverges from canonical (%d vs %d rows)", jt, len(got.Rows), len(want.Rows))
		}
	}
}

// TestOuterChainRejectsViews: an outer-join block cannot join aggregate
// views — group-bys cannot move across padding joins, so the multi-block
// machinery refuses outright.
func TestOuterChainRejectsViews(t *testing.T) {
	e := newOuterEnv(t, 50, 5, 0)
	q := outerChainQuery(e, false, false)
	q.Views = []*qblock.AggView{{
		Alias: "b",
		Block: &qblock.Block{
			Rels:      []*qblock.Rel{{Alias: "e2", Table: e.emp}},
			GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
			Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"),
				Out: schema.ColID{Rel: "b", Name: "asal"}}},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
				{E: expr.Col("b", "asal"), As: schema.ColID{Rel: "b", Name: "asal"}},
			},
		},
	}}
	if _, err := Optimize(q, DefaultOptions()); err == nil {
		t.Fatal("outer-join block joined to an aggregate view was accepted")
	}
}
