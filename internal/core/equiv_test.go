package core

import (
	"testing"

	"aggview/internal/cost"
	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
)

func TestColDSU(t *testing.T) {
	var d colDSU
	d.reset(3)
	const a, b, c = 0, 1, 2
	if d.connected(a, b) {
		t.Fatalf("fresh columns connected")
	}
	d.union(a, b)
	d.union(b, c)
	if !d.connected(a, c) {
		t.Fatalf("transitivity broken")
	}
	d.reset(3)
	if d.connected(a, c) {
		t.Fatalf("reset kept a class")
	}
}

func TestAddDerivedEqualities(t *testing.T) {
	a := schema.ColID{Rel: "r1", Name: "k"}
	b := schema.ColID{Rel: "r2", Name: "k"}
	c := schema.ColID{Rel: "r3", Name: "k"}
	aliases := map[string]uint64{"r1": 1, "r2": 2, "r3": 4}
	cols := cost.NewModel(0, 0).Cols()
	conjs := []dpConj{
		newConj(expr.NewCmp(expr.EQ, expr.ColOf(a), expr.ColOf(b)), 3, cols),
		newConj(expr.NewCmp(expr.EQ, expr.ColOf(b), expr.ColOf(c)), 6, cols),
	}
	out := addDerivedEqualities(conjs, aliases, cols)
	if len(out) != 3 {
		t.Fatalf("derived count = %d, want 3 (one synthesized r1-r3 edge)", len(out))
	}
	last := out[2]
	if !last.derived || last.mask != 5 {
		t.Fatalf("derived conj = %+v", last)
	}
}

func TestPrunedNewPredsSpanningForest(t *testing.T) {
	// Three relations in one equality class; joining the third must apply
	// exactly one of the two applicable equalities.
	a := schema.ColID{Rel: "r1", Name: "k"}
	b := schema.ColID{Rel: "r2", Name: "k"}
	c := schema.ColID{Rel: "r3", Name: "k"}
	model := cost.NewModel(0, 0)
	derived := newConj(expr.NewCmp(expr.EQ, expr.ColOf(a), expr.ColOf(c)), 5, model.Cols())
	derived.derived = true
	dp := &blockDP{model: model, conjs: []dpConj{
		newConj(expr.NewCmp(expr.EQ, expr.ColOf(a), expr.ColOf(b)), 3, model.Cols()),
		newConj(expr.NewCmp(expr.EQ, expr.ColOf(b), expr.ColOf(c)), 6, model.Cols()),
		derived,
	}}
	// prev = {r1, r2} (equality a=b applied inside), r = r3.
	preds := dp.prunedNewPreds(3, 4)
	if len(preds) != 1 {
		t.Fatalf("preds = %v, want exactly one class representative", preds)
	}
	// First join step {r1} ⋈ {r2}: one equality.
	preds = dp.prunedNewPreds(1, 2)
	if len(preds) != 1 {
		t.Fatalf("first-step preds = %v", preds)
	}
}

// TestTransitiveCorrelationPullUp is the end-to-end payoff: a view
// correlated through one relation can pull in another relation connected
// only transitively (l2.partkey = l.partkey ∧ l.partkey = p.partkey implies
// the l2-p join the Φ needs).
func TestTransitiveCorrelationPullUp(t *testing.T) {
	e := newEnv(t, 41, 20000, 2000)
	// View: avg sal per dno over e2; top: e1 ⋈ d, correlation through e1.
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
		Rels: []*qblock.Rel{
			{Alias: "e1", Table: e.emp},
			{Alias: "d", Table: e.dept},
		},
		Conjs: []expr.Expr{
			// The view connects to e1; d connects to e1; d reaches the view
			// only transitively.
			expr.NewCmp(expr.EQ, expr.Col("b", "dno"), expr.Col("e1", "dno")),
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("d", "dno")),
			expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(20)),
			expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal")),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "sal"), As: schema.ColID{Rel: "", Name: "sal"}},
		},
	}
	q := &qblock.Query{Views: []*qblock.AggView{view}, Top: top}

	opts := DefaultOptions()
	opts.PoolPages = 8
	full, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	trad := opts
	trad.Mode = ModeTraditional
	tp, err := Optimize(q, trad)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost > tp.Cost+1e-9 {
		t.Fatalf("full %g worse than traditional %g", full.Cost, tp.Cost)
	}
	// The candidate space must include pulls of both e1 and d (d reachable
	// only via the derived equality).
	if full.Stats.PullUpCandidates < 3 {
		t.Fatalf("pull-up candidates = %d, want ≥3 (transitive reachability)", full.Stats.PullUpCandidates)
	}
	fr, err := exec.New(e.store).Run(full.Root)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := exec.New(e.store).Run(tp.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.BagEqual(fr, tr) {
		t.Fatalf("results differ: %d vs %d rows\n%s", len(fr.Rows), len(tr.Rows), full.Explain())
	}
}

// TestDerivedEqualityNotDoubleCounted: a chain query's estimated join
// cardinality must match the no-derived-equality baseline (the spanning
// forest applies exactly n-1 equalities for an n-relation class).
func TestDerivedEqualityNotDoubleCounted(t *testing.T) {
	e := newEnv(t, 42, 1000, 50)
	top := &qblock.Block{
		Rels: []*qblock.Rel{
			{Alias: "a", Table: e.emp},
			{Alias: "b2", Table: e.emp},
			{Alias: "c2", Table: e.emp},
		},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("a", "dno"), expr.Col("b2", "dno")),
			expr.NewCmp(expr.EQ, expr.Col("b2", "dno"), expr.Col("c2", "dno")),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("a", "sal"), As: schema.ColID{Rel: "", Name: "sal"}},
		},
	}
	q := &qblock.Query{Top: top}
	plan, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Roughly 1000 rows, 50 dnos, ~20 per dno → ≈1000*20*20 rows. With a
	// double-counted equality the estimate would be ~50× too low.
	wantRows := 1000.0 * 20 * 20
	if plan.Info.Rows < wantRows/4 || plan.Info.Rows > wantRows*4 {
		t.Fatalf("estimated rows = %g, want ≈%g (selectivity double-count?)", plan.Info.Rows, wantRows)
	}
	res, err := exec.New(e.store).Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(res.Rows)) < wantRows/4 || float64(len(res.Rows)) > wantRows*4 {
		t.Fatalf("actual rows = %d, want ≈%g", len(res.Rows), wantRows)
	}
}
