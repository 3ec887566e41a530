package core

import (
	"math/rand"
	"strings"
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

// env holds a populated emp/dept database.
type env struct {
	store *storage.Store
	cat   *catalog.Catalog
	emp   *catalog.Table
	dept  *catalog.Table
}

// newEnv builds emp(eno pk, dno, sal, age) and dept(dno pk, budget) with
// nEmp employees over nDept departments and a deterministic seed.
func newEnv(t *testing.T, seed int64, nEmp, nDept int) *env {
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
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < nEmp; i++ {
		if err := c.Insert(emp, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(nDept))),
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
	if err := c.Analyze(emp); err != nil {
		t.Fatal(err)
	}
	if err := c.Analyze(dept); err != nil {
		t.Fatal(err)
	}
	// Re-resolve: mutations publish fresh copy-on-write Table objects, so
	// the handles returned by CreateTable describe the pre-insert version.
	emp, _ = c.Table("emp")
	dept, _ = c.Table("dept")
	return &env{store: st, cat: c, emp: emp, dept: dept}
}

// example1Query builds the paper's Example 1 in canonical form.
func example1Query(e *env, ageCut int64) *qblock.Query {
	view := &qblock.AggView{
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
	}
	top := &qblock.Block{
		Rels: []*qblock.Rel{{Alias: "e1", Table: e.emp}},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
			expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal")),
			expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(ageCut)),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "sal"), As: schema.ColID{Rel: "", Name: "sal"}},
		},
	}
	return &qblock.Query{Views: []*qblock.AggView{view}, Top: top}
}

// example2Query builds the paper's Example 2 (query C) as a single block.
func example2Query(e *env, budgetCut float64) *qblock.Query {
	top := &qblock.Block{
		Rels: []*qblock.Rel{
			{Alias: "e", Table: e.emp},
			{Alias: "d", Table: e.dept},
		},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno")),
			expr.NewCmp(expr.LT, expr.Col("d", "budget"), expr.FloatLit(budgetCut)),
		},
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"),
			Out: schema.ColID{Rel: "v", Name: "asal"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e", "dno"), As: schema.ColID{Rel: "", Name: "dno"}},
			{E: expr.Col("v", "asal"), As: schema.ColID{Rel: "", Name: "asal"}},
		},
	}
	return &qblock.Query{Top: top}
}

// optimizeAndRun optimizes under the given mode and executes the plan.
func optimizeAndRun(t *testing.T, e *env, q *qblock.Query, mode Mode) (*Plan, *exec.Result) {
	t.Helper()
	opts := DefaultOptions()
	opts.Mode = mode
	plan, err := Optimize(q, opts)
	if err != nil {
		t.Fatalf("[%v] Optimize: %v", mode, err)
	}
	res, err := exec.New(e.store).Run(plan.Root)
	if err != nil {
		t.Fatalf("[%v] Run: %v\n%s", mode, err, plan.Explain())
	}
	return plan, res
}

func TestSingleBlockSPJ(t *testing.T) {
	e := newEnv(t, 1, 2000, 30)
	top := &qblock.Block{
		Rels: []*qblock.Rel{
			{Alias: "e", Table: e.emp},
			{Alias: "d", Table: e.dept},
		},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno")),
			expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(25)),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e", "sal"), As: schema.ColID{Rel: "", Name: "sal"}},
			{E: expr.Col("d", "budget"), As: schema.ColID{Rel: "", Name: "budget"}},
		},
	}
	q := &qblock.Query{Top: top}
	plan, res := optimizeAndRun(t, e, q, ModeFull)
	want, err := exec.Naive(e.store, plan.Root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.BagEqual(res, want) {
		t.Fatalf("executor/naive disagree on optimized plan")
	}
	if len(res.Rows) == 0 {
		t.Fatalf("query returned nothing")
	}
	if plan.Stats.States == 0 || plan.Stats.PlansConsidered == 0 {
		t.Fatalf("stats not recorded: %+v", plan.Stats)
	}
}

func TestSingleBlockGroupByAllModesAgree(t *testing.T) {
	e := newEnv(t, 2, 3000, 40)
	q := example2Query(e, 600000)
	var results []*exec.Result
	var costs []float64
	for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
		plan, res := optimizeAndRun(t, e, q, mode)
		results = append(results, res)
		costs = append(costs, plan.Cost)
	}
	for i := 1; i < len(results); i++ {
		if !exec.BagEqual(results[0], results[i]) {
			t.Fatalf("mode %d result differs from traditional", i)
		}
	}
	// Never-worse guarantee (Section 5): estimated costs must not regress.
	if costs[1] > costs[0]+1e-9 {
		t.Errorf("push-down mode cost %g worse than traditional %g", costs[1], costs[0])
	}
	if costs[2] > costs[0]+1e-9 {
		t.Errorf("full mode cost %g worse than traditional %g", costs[2], costs[0])
	}
}

func TestExample1AllModesAgree(t *testing.T) {
	e := newEnv(t, 3, 2000, 25)
	q := example1Query(e, 25)
	var results []*exec.Result
	var costs []float64
	for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
		plan, res := optimizeAndRun(t, e, q, mode)
		results = append(results, res)
		costs = append(costs, plan.Cost)
	}
	if len(results[0].Rows) == 0 {
		t.Fatalf("example 1 returned nothing; enlarge fixture")
	}
	for i := 1; i < len(results); i++ {
		if !exec.BagEqual(results[0], results[i]) {
			t.Fatalf("mode %d result differs from traditional (%d vs %d rows)",
				i, len(results[0].Rows), len(results[i].Rows))
		}
	}
	if costs[2] > costs[0]+1e-9 {
		t.Errorf("full mode cost %g worse than traditional %g", costs[2], costs[0])
	}
}

func TestExample1PullUpChosenWhenSelective(t *testing.T) {
	// Few employees under the age cut, many departments: deferring the
	// view's group-by (query B) should win, so the full mode must produce
	// a cheaper plan than the traditional one.
	e := newEnv(t, 4, 20000, 2000)
	q := example1Query(e, 19) // age < 19: ~2% of employees
	tradPlan, _ := optimizeAndRun(t, e, q, ModeTraditional)
	fullPlan, _ := optimizeAndRun(t, e, q, ModeFull)
	if fullPlan.Cost > tradPlan.Cost {
		t.Fatalf("full %g should not exceed traditional %g", fullPlan.Cost, tradPlan.Cost)
	}
	if fullPlan.Stats.PullUpCandidates < 2 {
		t.Errorf("expected pull-up candidates, got %+v", fullPlan.Stats)
	}
}

func TestModeStrings(t *testing.T) {
	if ModeTraditional.String() != "traditional" || ModePushDown.String() != "push-down" || ModeFull.String() != "full" {
		t.Errorf("mode strings wrong")
	}
}

func TestExample2PushDownConsidered(t *testing.T) {
	e := newEnv(t, 5, 5000, 50)
	q := example2Query(e, 950000) // unselective budget filter
	plan, _ := optimizeAndRun(t, e, q, ModePushDown)
	if plan.Stats.GroupPlacements == 0 {
		t.Errorf("greedy conservative generated no early group-by candidates")
	}
}

func TestMultiViewQuery(t *testing.T) {
	// Figure 5 shape: two aggregate views joined with a base relation.
	e := newEnv(t, 6, 2000, 30)
	mkView := func(alias, inner string, agg expr.AggKind) *qblock.AggView {
		return &qblock.AggView{
			Alias: alias,
			Block: &qblock.Block{
				Rels:      []*qblock.Rel{{Alias: inner, Table: e.emp}},
				GroupCols: []schema.ColID{{Rel: inner, Name: "dno"}},
				Aggs: []expr.Agg{{Kind: agg, Arg: expr.Col(inner, "sal"),
					Out: schema.ColID{Rel: alias, Name: "v"}}},
				Outputs: []lplan.NamedExpr{
					{E: expr.Col(inner, "dno"), As: schema.ColID{Rel: alias, Name: "dno"}},
					{E: expr.Col(alias, "v"), As: schema.ColID{Rel: alias, Name: "v"}},
				},
			},
		}
	}
	v1 := mkView("v1", "x1", expr.AggAvg)
	v2 := mkView("v2", "x2", expr.AggMax)
	top := &qblock.Block{
		Rels: []*qblock.Rel{{Alias: "d", Table: e.dept}},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("d", "dno"), expr.Col("v1", "dno")),
			expr.NewCmp(expr.EQ, expr.Col("d", "dno"), expr.Col("v2", "dno")),
			expr.NewCmp(expr.LT, expr.Col("d", "budget"), expr.FloatLit(800000)),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("v1", "v"), As: schema.ColID{Rel: "", Name: "avg_sal"}},
			{E: expr.Col("v2", "v"), As: schema.ColID{Rel: "", Name: "max_sal"}},
			{E: expr.Col("d", "dno"), As: schema.ColID{Rel: "", Name: "dno"}},
		},
	}
	q := &qblock.Query{Views: []*qblock.AggView{v1, v2}, Top: top}

	var results []*exec.Result
	var costs []float64
	for _, mode := range []Mode{ModeTraditional, ModeFull} {
		plan, res := optimizeAndRun(t, e, q, mode)
		results = append(results, res)
		costs = append(costs, plan.Cost)
	}
	if len(results[0].Rows) == 0 {
		t.Fatalf("multi-view query returned nothing")
	}
	if !exec.BagEqual(results[0], results[1]) {
		t.Fatalf("multi-view results differ across modes (%d vs %d rows)",
			len(results[0].Rows), len(results[1].Rows))
	}
	if costs[1] > costs[0]+1e-9 {
		t.Errorf("full mode cost %g worse than traditional %g", costs[1], costs[0])
	}
}

func TestTopGroupByOverViewOutputs(t *testing.T) {
	// The top block aggregates over a view's aggregate output: G0 over Q1.
	e := newEnv(t, 7, 1500, 20)
	view := example1Query(e, 99).Views[0]
	top := &qblock.Block{
		Rels: []*qblock.Rel{{Alias: "e1", Table: e.emp}},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
		},
		GroupCols: []schema.ColID{{Rel: "e1", Name: "age"}},
		Aggs: []expr.Agg{{Kind: expr.AggMax, Arg: expr.Col("b", "asal"),
			Out: schema.ColID{Rel: "g0", Name: "m"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "age"), As: schema.ColID{Rel: "", Name: "age"}},
			{E: expr.Col("g0", "m"), As: schema.ColID{Rel: "", Name: "max_avg"}},
		},
	}
	q := &qblock.Query{Views: []*qblock.AggView{view}, Top: top}
	var results []*exec.Result
	for _, mode := range []Mode{ModeTraditional, ModeFull} {
		_, res := optimizeAndRun(t, e, q, mode)
		results = append(results, res)
	}
	if !exec.BagEqual(results[0], results[1]) {
		t.Fatalf("G0-over-view results differ across modes")
	}
}

func TestKLevelRestrictionLimitsCandidates(t *testing.T) {
	e := newEnv(t, 8, 1000, 15)
	q := example1Query(e, 30)
	optsK0 := DefaultOptions()
	optsK0.KLevelPullUp = 0 // unlimited
	p0, err := Optimize(q, optsK0)
	if err != nil {
		t.Fatal(err)
	}
	optsK := DefaultOptions()
	optsK.KLevelPullUp = 1
	p1, err := Optimize(q, optsK)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Stats.PullUpCandidates > p0.Stats.PullUpCandidates {
		t.Errorf("k=1 candidates %d exceed unlimited %d",
			p1.Stats.PullUpCandidates, p0.Stats.PullUpCandidates)
	}
}

func TestSharedPredicateRestriction(t *testing.T) {
	// A base relation with no predicate linking it to the view must not be
	// pulled through when the restriction is on.
	e := newEnv(t, 9, 800, 10)
	q := example1Query(e, 30)
	// Add an unrelated relation joined only to e1 on age (not to the view).
	q.Top.Rels = append(q.Top.Rels, &qblock.Rel{Alias: "d9", Table: e.dept})
	q.Top.Conjs = append(q.Top.Conjs,
		expr.NewCmp(expr.EQ, expr.Col("e1", "age"), expr.Col("d9", "dno")))

	strict := DefaultOptions()
	strict.RequireSharedPredicate = true
	strict.KLevelPullUp = 0
	pStrict, err := Optimize(q, strict)
	if err != nil {
		t.Fatal(err)
	}
	loose := strict
	loose.RequireSharedPredicate = false
	pLoose, err := Optimize(q, loose)
	if err != nil {
		t.Fatal(err)
	}
	if pStrict.Stats.PullUpCandidates > pLoose.Stats.PullUpCandidates {
		t.Errorf("predicate sharing should not increase candidates: %d vs %d",
			pStrict.Stats.PullUpCandidates, pLoose.Stats.PullUpCandidates)
	}
	// Both must execute correctly.
	for _, p := range []*Plan{pStrict, pLoose} {
		if _, err := exec.New(e.store).Run(p.Root); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
}

// TestNeverWorseThanTraditional is experiment E7's property test: across
// randomized databases and queries, the extended optimizer's estimated
// cost never exceeds the traditional optimizer's, and all plans agree on
// results.
func TestNeverWorseThanTraditional(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		r := rand.New(rand.NewSource(int64(500 + trial)))
		e := newEnv(t, int64(600+trial), 500+r.Intn(3000), 5+r.Intn(100))
		var q *qblock.Query
		switch trial % 3 {
		case 0:
			q = example1Query(e, int64(19+r.Intn(40)))
		case 1:
			q = example2Query(e, float64(200000+r.Intn(700000)))
		default:
			q = example1Query(e, int64(19+r.Intn(40)))
			q.Top.Rels = append(q.Top.Rels, &qblock.Rel{Alias: "d", Table: e.dept})
			q.Top.Conjs = append(q.Top.Conjs,
				expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("d", "dno")))
		}
		tradPlan, tradRes := optimizeAndRun(t, e, q, ModeTraditional)
		fullPlan, fullRes := optimizeAndRun(t, e, q, ModeFull)
		if fullPlan.Cost > tradPlan.Cost+1e-9 {
			t.Fatalf("trial %d: full cost %g exceeds traditional %g\nfull:\n%s\ntrad:\n%s",
				trial, fullPlan.Cost, tradPlan.Cost, fullPlan.Explain(), tradPlan.Explain())
		}
		if !exec.BagEqual(tradRes, fullRes) {
			t.Fatalf("trial %d: results differ (%d vs %d rows)\nfull:\n%s",
				trial, len(tradRes.Rows), len(fullRes.Rows), fullPlan.Explain())
		}
		// Cross-check the executor against the naive oracle on the chosen
		// full-mode plan.
		oracle, err := exec.Naive(e.store, fullPlan.Root, nil)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		if !exec.BagEqual(fullRes, oracle) {
			t.Fatalf("trial %d: executor disagrees with oracle (%d vs %d rows)\n%s",
				trial, len(fullRes.Rows), len(oracle.Rows), fullPlan.Explain())
		}
	}
}

func TestExplainContainsPlanShape(t *testing.T) {
	e := newEnv(t, 10, 500, 10)
	plan, _ := optimizeAndRun(t, e, example1Query(e, 30), ModeTraditional)
	out := plan.Explain()
	if !strings.Contains(out, "Scan emp") || !strings.Contains(out, "GroupBy") {
		t.Errorf("explain output incomplete:\n%s", out)
	}
}

func TestOptimizeRejectsInvalidQuery(t *testing.T) {
	e := newEnv(t, 11, 10, 2)
	q := example1Query(e, 30)
	q.Top.Outputs = nil
	if _, err := Optimize(q, DefaultOptions()); err == nil {
		t.Fatalf("invalid query accepted")
	}
}
