package core

import (
	"math"
	"strings"
	"testing"

	"aggview/internal/cost"
	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// TestDPOptimalAgainstBruteForce verifies the Selinger DP against an
// exhaustive enumeration of left-deep join orders (per join method) on a
// three-relation SPJ query: the DP's chosen cost must equal the brute-force
// minimum.
func TestDPOptimalAgainstBruteForce(t *testing.T) {
	e := newEnv(t, 21, 4000, 50)
	third, err := e.cat.CreateTable("third", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "x"}, Type: types.KindInt},
	}, []string{"dno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := e.cat.Insert(third, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.cat.Analyze(third); err != nil {
		t.Fatal(err)
	}

	top := &qblock.Block{
		Rels: []*qblock.Rel{
			{Alias: "e", Table: e.emp},
			{Alias: "d", Table: e.dept},
			{Alias: "t", Table: third},
		},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno")),
			expr.NewCmp(expr.EQ, expr.Col("d", "dno"), expr.Col("t", "dno")),
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e", "sal"), As: schema.ColID{Name: "sal"}},
		},
	}
	q := &qblock.Query{Top: top}
	opts := DefaultOptions()
	opts.PoolPages = 8
	plan, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Brute force: all 6 left-deep permutations × all method combinations.
	model := cost.NewModel(8, 0)
	rels := map[string]lplan.Node{
		"e": &lplan.Scan{Alias: "e", Table: e.emp},
		"d": &lplan.Scan{Alias: "d", Table: e.dept},
		"t": &lplan.Scan{Alias: "t", Table: third},
	}
	preds := func(ls, rs schema.Schema) []expr.Expr {
		var out []expr.Expr
		for _, p := range top.Conjs {
			ok := true
			for _, c := range expr.Columns(p) {
				if !ls.Contains(c) && !rs.Contains(c) {
					ok = false
				}
			}
			if ok {
				out = append(out, p)
			}
		}
		return out
	}
	methods := []lplan.JoinMethod{lplan.JoinHash, lplan.JoinMerge, lplan.JoinBlockNL}
	best := math.Inf(1)
	perms := [][]string{
		{"e", "d", "t"}, {"e", "t", "d"}, {"d", "e", "t"},
		{"d", "t", "e"}, {"t", "e", "d"}, {"t", "d", "e"},
	}
	for _, perm := range perms {
		for _, m1 := range methods {
			for _, m2 := range methods {
				j1 := &lplan.Join{L: rels[perm[0]], R: rels[perm[1]], Method: m1,
					Preds: preds(rels[perm[0]].Schema(), rels[perm[1]].Schema())}
				// Cross joins distort comparability; skip predicate-free first joins
				// only when a predicate-connected alternative exists (it does here
				// except for the e-t pairs).
				j2 := &lplan.Join{L: j1, R: rels[perm[2]], Method: m2,
					Preds: preds(j1.Schema(), rels[perm[2]].Schema())}
				p := &lplan.Project{In: j2, Items: top.Outputs}
				info, err := model.Info(p)
				if err != nil {
					continue
				}
				if info.Cost < best {
					best = info.Cost
				}
			}
		}
	}
	// The DP prunes scans to needed columns, which brute force here does
	// not, so DP cost must be ≤ brute-force best.
	if plan.Cost > best+1e-6 {
		t.Fatalf("DP cost %g worse than brute force %g\n%s", plan.Cost, best, plan.Explain())
	}
}

func TestNoHashJoinModeAvoidsHashJoins(t *testing.T) {
	e := newEnv(t, 22, 5000, 100)
	q := example2Query(e, 900000)
	opts := DefaultOptions()
	opts.NoHashJoin = true
	opts.PoolPages = 8
	plan, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(), "Join[hash]") {
		t.Fatalf("NoHashJoin plan contains a hash join:\n%s", plan.Explain())
	}
	res, err := exec.New(e.store).Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := exec.New(e.store).Run(ref.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.BagEqual(res, refRes) {
		t.Fatalf("NoHashJoin results differ")
	}
}

// TestInvariantPlacementChosen checks the greedy conservative heuristic
// actually places a group-by below a join when it pays (System-R joins,
// group table fits, input sort would spill).
func TestInvariantPlacementChosen(t *testing.T) {
	e := newEnv(t, 24, 30000, 500)
	q := example2Query(e, 900000)
	opts := DefaultOptions()
	opts.Mode = ModePushDown
	opts.NoHashJoin = true
	opts.PoolPages = 8
	plan, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The plan must contain a Join whose input is a GroupBy (early
	// placement), i.e. a GroupBy that is not the root.
	txt := plan.Explain()
	lines := strings.Split(txt, "\n")
	early := false
	for i, line := range lines {
		if i > 0 && strings.Contains(line, "GroupBy") && strings.HasPrefix(line, "  ") {
			early = true
		}
	}
	if !early {
		t.Fatalf("no early group-by placement:\n%s", txt)
	}
	// And it must still be correct.
	res, err := exec.New(e.store).Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Naive(e.store, plan.Root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.BagEqual(res, want) {
		t.Fatalf("early-placement plan wrong")
	}
}

func TestCoalescingPlacementChosen(t *testing.T) {
	e := newEnv(t, 25, 30000, 1000)
	// Grouping spans both relations: only coalescing applies.
	top := &qblock.Block{
		Rels: []*qblock.Rel{
			{Alias: "e", Table: e.emp},
			{Alias: "d", Table: e.dept},
		},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno")),
		},
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}, {Rel: "d", Name: "budget"}},
		Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"),
			Out: schema.ColID{Rel: "g", Name: "s"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e", "dno"), As: schema.ColID{Name: "dno"}},
			{E: expr.Col("g", "s"), As: schema.ColID{Name: "s"}},
		},
	}
	q := &qblock.Query{Top: top}
	opts := DefaultOptions()
	opts.Mode = ModePushDown
	opts.NoHashJoin = true
	opts.PoolPages = 8
	plan, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "sum$") &&
		!strings.Contains(plan.Explain(), "SUM(") {
		t.Fatalf("plan lost the aggregate:\n%s", plan.Explain())
	}
	res, err := exec.New(e.store).Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	trad := opts
	trad.Mode = ModeTraditional
	tp, err := Optimize(q, trad)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := exec.New(e.store).Run(tp.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.BagEqual(res, tres) {
		t.Fatalf("coalescing-mode results differ from traditional")
	}
	if plan.Cost > tp.Cost+1e-9 {
		t.Fatalf("push-down cost regressed: %g vs %g", plan.Cost, tp.Cost)
	}
}

func TestSearchStatsAddAndString(t *testing.T) {
	a := SearchStats{States: 1, PlansConsidered: 2, GroupPlacements: 3, PullUpCandidates: 4, Phase2Runs: 5}
	b := a
	a.Add(b)
	if a.States != 2 || a.Phase2Runs != 10 {
		t.Fatalf("Add = %+v", a)
	}
	if !strings.Contains(a.String(), "states=2") {
		t.Fatalf("String = %q", a.String())
	}
}

// TestSuccessiveGroupBysMerged: a top group-by directly over an aggregate
// view (coarser regrouping of a SUM) should be merged into a single
// group-by when that is cheaper, and must stay correct either way.
func TestSuccessiveGroupBysMerged(t *testing.T) {
	e := newEnv(t, 26, 20000, 4000)
	view := &qblock.AggView{
		Alias: "v",
		Block: &qblock.Block{
			Rels:      []*qblock.Rel{{Alias: "e2", Table: e.emp}},
			GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}, {Rel: "e2", Name: "age"}},
			Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e2", "sal"),
				Out: schema.ColID{Rel: "v", Name: "s"}}},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "v", Name: "dno"}},
				{E: expr.Col("v", "s"), As: schema.ColID{Rel: "v", Name: "s"}},
			},
		},
	}
	top := &qblock.Block{
		GroupCols: []schema.ColID{{Rel: "v", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("v", "s"),
			Out: schema.ColID{Rel: "g", Name: "tot"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("v", "dno"), As: schema.ColID{Name: "dno"}},
			{E: expr.Col("g", "tot"), As: schema.ColID{Name: "tot"}},
		},
	}
	q := &qblock.Query{Views: []*qblock.AggView{view}, Top: top}
	opts := DefaultOptions()
	opts.PoolPages = 8
	plan, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Correctness: direct single group-by reference.
	direct := &qblock.Query{Top: &qblock.Block{
		Rels:      []*qblock.Rel{{Alias: "e2", Table: e.emp}},
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e2", "sal"),
			Out: schema.ColID{Rel: "g", Name: "tot"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e2", "dno"), As: schema.ColID{Name: "dno"}},
			{E: expr.Col("g", "tot"), As: schema.ColID{Name: "tot"}},
		},
	}}
	dp2, err := Optimize(direct, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.New(e.store).Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.New(e.store).Run(dp2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.BagEqual(got, want) {
		t.Fatalf("merged/vanilla results differ (%d vs %d)\n%s",
			len(got.Rows), len(want.Rows), plan.Explain())
	}
	// The chosen plan should contain exactly one GroupBy (merged): the
	// inner (dno, age) pass spills at this scale while the merged single
	// pass by dno also spills — but one pass beats two.
	count := strings.Count(plan.Explain(), "GroupBy")
	if count != 1 {
		t.Fatalf("plan kept %d group-bys; merge not chosen:\n%s", count, plan.Explain())
	}
	// The merged plan still scans the inner grouping column (age) because
	// projection pruning is computed before merging — allow that overhead
	// but nothing more.
	if plan.Cost > dp2.Cost*1.3 {
		t.Fatalf("view-form cost %g much worse than direct %g", plan.Cost, dp2.Cost)
	}
}
