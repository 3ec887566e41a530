package transform

import (
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// env is an emp/dept database with randomized contents.
type env struct {
	store *storage.Store
	cat   *catalog.Catalog
	emp   *catalog.Table
	dept  *catalog.Table
	nokey *catalog.Table // like dept but without a declared key
}

func newEnv(t *testing.T, seed int64, nEmp, nDept int) *env {
	t.Helper()
	st := storage.NewStore(32)
	c := catalog.New(st)
	emp, err := c.CreateTable("emp", []schema.Column{
		{ID: schema.ColID{Name: "eno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "sal"}, Type: types.KindFloat},
		{ID: schema.ColID{Name: "age"}, Type: types.KindInt},
	}, []string{"eno"}, []schema.ForeignKey{
		{Cols: []string{"dno"}, RefTable: "dept", RefCols: []string{"dno"}},
	})
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
	nokey, err := c.CreateTable("nokey", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "tag"}, Type: types.KindInt},
	}, nil, nil)
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
	// nokey deliberately contains duplicate dno values.
	for i := 0; i < nDept*2; i++ {
		if err := c.Insert(nokey, types.Row{
			types.NewInt(int64(r.Intn(nDept))),
			types.NewInt(int64(r.Intn(5))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range []*catalog.Table{emp, dept, nokey} {
		if err := c.Analyze(tb); err != nil {
			t.Fatal(err)
		}
	}
	return &env{store: st, cat: c, emp: emp, dept: dept, nokey: nokey}
}

func (e *env) scan(tbl *catalog.Table, alias string) *lplan.Scan {
	return &lplan.Scan{Alias: alias, Table: tbl}
}

// mustEquiv executes both plans and requires identical result bags.
func mustEquiv(t *testing.T, e *env, a, b lplan.Node, what string) {
	t.Helper()
	ra, err := exec.New(e.store).Run(a)
	if err != nil {
		t.Fatalf("%s: run original: %v\n%s", what, err, lplan.Format(a))
	}
	rb, err := exec.New(e.store).Run(b)
	if err != nil {
		t.Fatalf("%s: run transformed: %v\n%s", what, err, lplan.Format(b))
	}
	if !exec.BagEqual(ra, rb) {
		t.Fatalf("%s: results differ (%d vs %d rows)\noriginal:\n%stransformed:\n%s",
			what, len(ra.Rows), len(rb.Rows), lplan.Format(a), lplan.Format(b))
	}
}

// example1P1 builds the P1 plan of the paper's Example 1: join of emp e1
// (age < 22) with the aggregate view A1 = (dno, avg(sal)) of emp e2,
// comparing e1.sal > b.asal.
func example1P1(e *env) *lplan.Join {
	a1 := &lplan.GroupBy{
		In:        e.scan(e.emp, "e2"),
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"),
			Out: schema.ColID{Rel: "b", Name: "asal"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
			{E: expr.Col("b", "asal"), As: schema.ColID{Rel: "b", Name: "asal"}},
		},
	}
	e1 := e.scan(e.emp, "e1")
	e1.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(22))}
	return &lplan.Join{
		L: e1,
		R: a1,
		Preds: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
			expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal")),
		},
		Proj: []schema.ColID{{Rel: "e1", Name: "sal"}},
	}
}

func TestPullUpExample1(t *testing.T) {
	e := newEnv(t, 1, 800, 12)
	p1 := example1P1(e)
	p2, err := PullUp(p1)
	if err != nil {
		t.Fatalf("PullUp: %v", err)
	}
	mustEquiv(t, e, p1, p2, "example 1 pull-up")

	// The deferred predicate must now live in the Having clause.
	if len(p2.Having) != 1 || !strings.Contains(p2.Having[0].String(), "asal") {
		t.Fatalf("Having = %v", p2.Having)
	}
	// The grouping columns must include e1's key (Definition 1, item 2).
	found := false
	for _, gc := range p2.GroupCols {
		if gc == (schema.ColID{Rel: "e1", Name: "eno"}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("grouping columns %v lack R2's key", p2.GroupCols)
	}
}

func TestPullUpGroupByOnLeft(t *testing.T) {
	e := newEnv(t, 2, 500, 9)
	p1 := example1P1(e)
	// Mirror the join: group-by on the left.
	mirror := &lplan.Join{L: p1.R, R: p1.L, Preds: p1.Preds, Proj: p1.Proj}
	p2, err := PullUp(mirror)
	if err != nil {
		t.Fatalf("PullUp(mirrored): %v", err)
	}
	mustEquiv(t, e, mirror, p2, "mirrored pull-up")
}

func TestPullUpForeignKeyJoinSkipsKey(t *testing.T) {
	e := newEnv(t, 3, 400, 8)
	// View over emp grouped by dno, joined with dept on dept's key.
	g := &lplan.GroupBy{
		In:        e.scan(e.emp, "e2"),
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e2", "sal"),
			Out: schema.ColID{Rel: "v", Name: "tot"}}},
	}
	j := &lplan.Join{
		L:     g,
		R:     e.scan(e.dept, "d"),
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e2", "dno"), expr.Col("d", "dno"))},
	}
	p2, err := PullUp(j)
	if err != nil {
		t.Fatal(err)
	}
	mustEquiv(t, e, j, p2, "fk pull-up")
	// d.dno is in the projection (hence grouped), but d's key must not have
	// been *added* beyond that: grouping = {e2.dno, d.dno, d.budget}.
	for _, gc := range p2.GroupCols {
		if gc.Rel != "e2" && gc.Rel != "d" {
			t.Fatalf("unexpected grouping column %v", gc)
		}
	}
}

func TestPullUpKeylessScanUsesTID(t *testing.T) {
	e := newEnv(t, 4, 300, 6)
	g := &lplan.GroupBy{
		In:        e.scan(e.emp, "e2"),
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggCountStar,
			Out: schema.ColID{Rel: "v", Name: "cnt"}}},
	}
	j := &lplan.Join{
		L:     g,
		R:     e.scan(e.nokey, "n"),
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e2", "dno"), expr.Col("n", "dno"))},
	}
	p2, err := PullUp(j)
	if err != nil {
		t.Fatal(err)
	}
	mustEquiv(t, e, j, p2, "keyless pull-up")
	foundTID := false
	for _, gc := range p2.GroupCols {
		if gc.Name == lplan.TIDColumn {
			foundTID = true
		}
	}
	if !foundTID {
		t.Fatalf("grouping columns %v lack the tuple id of the keyless side", p2.GroupCols)
	}
}

func TestPullUpErrors(t *testing.T) {
	e := newEnv(t, 5, 50, 4)
	plain := &lplan.Join{L: e.scan(e.emp, "a"), R: e.scan(e.dept, "d"),
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("a", "dno"), expr.Col("d", "dno"))}}
	if _, err := PullUp(plain); err == nil {
		t.Errorf("pull-up without group-by accepted")
	}
	g1 := &lplan.GroupBy{In: e.scan(e.emp, "x"), GroupCols: []schema.ColID{{Rel: "x", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "c"}}}}
	g2 := &lplan.GroupBy{In: e.scan(e.emp, "y"), GroupCols: []schema.ColID{{Rel: "y", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "h", Name: "c"}}}}
	both := &lplan.Join{L: g1, R: g2,
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("x", "dno"), expr.Col("y", "dno"))}}
	if _, err := PullUp(both); err == nil {
		t.Errorf("pull-up with two group-bys accepted")
	}
}

// TestPullUpPropertyRandomized is experiment E3: randomized instances of
// Figure 1's P1 → P2 equivalence.
func TestPullUpPropertyRandomized(t *testing.T) {
	aggKinds := []expr.AggKind{expr.AggSum, expr.AggAvg, expr.AggCount, expr.AggMin, expr.AggMax, expr.AggCountStar}
	for trial := 0; trial < 12; trial++ {
		r := rand.New(rand.NewSource(int64(100 + trial)))
		e := newEnv(t, int64(200+trial), 100+r.Intn(400), 3+r.Intn(12))

		kind := aggKinds[r.Intn(len(aggKinds))]
		agg := expr.Agg{Kind: kind, Arg: expr.Col("e2", "sal"), Out: schema.ColID{Rel: "b", Name: "a0"}}
		if kind == expr.AggCountStar {
			agg.Arg = nil
		}
		g := &lplan.GroupBy{
			In:        e.scan(e.emp, "e2"),
			GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
			Aggs:      []expr.Agg{agg},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
				{E: expr.Col("b", "a0"), As: schema.ColID{Rel: "b", Name: "a0"}},
			},
		}
		other := e.scan(e.emp, "e1")
		if r.Intn(2) == 0 {
			other.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(int64(20+r.Intn(40))))}
		}
		preds := []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("b", "dno"), expr.Col("e1", "dno"))}
		if r.Intn(2) == 0 {
			ops := []expr.CmpOp{expr.GT, expr.LT, expr.GE, expr.LE}
			preds = append(preds, expr.NewCmp(ops[r.Intn(len(ops))], expr.Col("e1", "sal"), expr.Col("b", "a0")))
		}
		j := &lplan.Join{L: g, R: other, Preds: preds}
		if r.Intn(2) == 0 {
			j.Proj = []schema.ColID{{Rel: "e1", Name: "sal"}, {Rel: "b", Name: "a0"}}
		}
		p2, err := PullUp(j)
		if err != nil {
			t.Fatalf("trial %d: PullUp: %v", trial, err)
		}
		mustEquiv(t, e, j, p2, "randomized pull-up")
	}
}

// example2G builds query C of the paper's Example 2: average salary per
// department with budget below 1M.
func example2G(e *env) *lplan.GroupBy {
	d := e.scan(e.dept, "d")
	d.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("d", "budget"), expr.FloatLit(1e6))}
	j := &lplan.Join{
		L:     e.scan(e.emp, "e"),
		R:     d,
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
	}
	return &lplan.GroupBy{
		In:        j,
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"),
			Out: schema.ColID{Rel: "v", Name: "asal"}}},
	}
}

func TestPushInvariantExample2(t *testing.T) {
	e := newEnv(t, 6, 600, 10)
	g := example2G(e)
	pushed, err := PushInvariant(g)
	if err != nil {
		t.Fatalf("PushInvariant: %v", err)
	}
	mustEquiv(t, e, g, pushed, "example 2 invariant grouping")
}

func TestPushInvariantWithHavingAndOutputs(t *testing.T) {
	e := newEnv(t, 7, 600, 10)
	g := example2G(e)
	g.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("v", "asal"), expr.IntLit(1500))}
	g.Outputs = []lplan.NamedExpr{
		{E: expr.Col("v", "asal"), As: schema.ColID{Rel: "o", Name: "avg_sal"}},
		{E: expr.Col("e", "dno"), As: schema.ColID{Rel: "o", Name: "dno"}},
	}
	pushed, err := PushInvariant(g)
	if err != nil {
		t.Fatalf("PushInvariant: %v", err)
	}
	mustEquiv(t, e, g, pushed, "invariant grouping with having")
}

func TestPushInvariantRejectsNonKeyJoin(t *testing.T) {
	e := newEnv(t, 8, 200, 6)
	// Join against nokey (duplicates, no key): pushing would double-count.
	j := &lplan.Join{
		L:     e.scan(e.emp, "e"),
		R:     e.scan(e.nokey, "n"),
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("n", "dno"))},
	}
	g := &lplan.GroupBy{
		In:        j,
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"),
			Out: schema.ColID{Rel: "v", Name: "s"}}},
	}
	if _, err := PushInvariant(g); err == nil {
		t.Fatalf("invariant grouping over a non-key join accepted")
	}
}

func TestPushInvariantRejectsNonGroupingJoinColumn(t *testing.T) {
	e := newEnv(t, 9, 200, 6)
	// Join on e.eno (not a grouping column): groups span join behaviors.
	j := &lplan.Join{
		L:     e.scan(e.emp, "e"),
		R:     e.scan(e.dept, "d"),
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "eno"), expr.Col("d", "dno"))},
	}
	g := &lplan.GroupBy{
		In:        j,
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"),
			Out: schema.ColID{Rel: "v", Name: "s"}}},
	}
	if _, err := PushInvariant(g); err == nil {
		t.Fatalf("invariant grouping with non-grouping join column accepted")
	}
}

func TestCoalesceManyToManyJoin(t *testing.T) {
	e := newEnv(t, 10, 400, 8)
	// nokey has duplicate dno values: a many-to-many join where invariant
	// grouping is unsound but coalescing is exact.
	j := &lplan.Join{
		L:     e.scan(e.emp, "e"),
		R:     e.scan(e.nokey, "n"),
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("n", "dno"))},
	}
	g := &lplan.GroupBy{
		In:        j,
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}, {Rel: "n", Name: "tag"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggSum, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "v", Name: "s"}},
			{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "v", Name: "a"}},
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "c"}},
			{Kind: expr.AggMin, Arg: expr.Col("e", "age"), Out: schema.ColID{Rel: "v", Name: "m"}},
		},
	}
	co, err := Coalesce(g)
	if err != nil {
		t.Fatalf("Coalesce: %v", err)
	}
	mustEquiv(t, e, g, co, "coalescing over many-to-many join")
}

func TestCoalesceWithHavingAndOutputs(t *testing.T) {
	e := newEnv(t, 11, 500, 10)
	g := example2G(e)
	g.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("v", "asal"), expr.IntLit(1200))}
	g.Outputs = []lplan.NamedExpr{
		{E: expr.NewArith(expr.Mul, expr.Col("v", "asal"), expr.IntLit(2)), As: schema.ColID{Rel: "o", Name: "dbl"}},
		{E: expr.Col("e", "dno"), As: schema.ColID{Rel: "o", Name: "dno"}},
	}
	co, err := Coalesce(g)
	if err != nil {
		t.Fatalf("Coalesce: %v", err)
	}
	mustEquiv(t, e, g, co, "coalescing with having/outputs")
}

func TestCoalesceRejectsMedian(t *testing.T) {
	e := newEnv(t, 12, 100, 5)
	g := example2G(e)
	g.Aggs = []expr.Agg{{Kind: expr.AggMedian, Arg: expr.Col("e", "sal"),
		Out: schema.ColID{Rel: "v", Name: "med"}}}
	if _, err := Coalesce(g); err == nil {
		t.Fatalf("coalescing MEDIAN accepted")
	}
}

// TestPushDownPropertyRandomized is experiment E4: randomized instances of
// Figure 2's push-down equivalences.
func TestPushDownPropertyRandomized(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(300 + trial)))
		e := newEnv(t, int64(400+trial), 100+r.Intn(300), 3+r.Intn(10))
		g := example2G(e)
		if r.Intn(2) == 0 {
			g.Aggs = append(g.Aggs, expr.Agg{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "c"}})
		}
		if r.Intn(2) == 0 {
			g.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("v", "asal"), expr.IntLit(int64(1000+r.Intn(1500))))}
		}
		pushed, err := PushInvariant(g)
		if err != nil {
			t.Fatalf("trial %d: PushInvariant: %v", trial, err)
		}
		mustEquiv(t, e, g, pushed, "randomized invariant grouping")
		co, err := Coalesce(g)
		if err != nil {
			t.Fatalf("trial %d: Coalesce: %v", trial, err)
		}
		mustEquiv(t, e, g, co, "randomized coalescing")
	}
}

// TestPushPullRoundTrip pushes a group-by down and pulls it back up; both
// directions must preserve results (Figures 1 and 2 composed).
func TestPushPullRoundTrip(t *testing.T) {
	e := newEnv(t, 19, 500, 10)
	g := example2G(e)
	pushed, err := PushInvariant(g)
	if err != nil {
		t.Fatal(err)
	}
	// The pushed form is Join(GroupBy(emp), dept) possibly wrapped; find
	// the join and pull the group-by back up.
	j, ok := pushed.(*lplan.Join)
	if !ok {
		if p, isProj := pushed.(*lplan.Project); isProj {
			j, ok = p.In.(*lplan.Join)
		}
		if !ok {
			t.Fatalf("pushed tree has unexpected shape:\n%s", lplan.Format(pushed))
		}
	}
	back, err := PullUp(j)
	if err != nil {
		t.Fatalf("PullUp after PushInvariant: %v", err)
	}
	mustEquiv(t, e, j, back, "push-pull round trip")
}

// TestCoalesceUserDefinedStdDev: a user-defined aggregate registered with a
// decomposition participates in simple coalescing; the rebuilt value must
// match the direct computation.
func TestCoalesceUserDefinedStdDev(t *testing.T) {
	e := newEnv(t, 60, 600, 12)
	g := example2G(e)
	g.Aggs = []expr.Agg{{Kind: expr.AggUser, User: "stddev", Arg: expr.Col("e", "sal"),
		Out: schema.ColID{Rel: "v", Name: "sd"}}}
	co, err := Coalesce(g)
	if err != nil {
		t.Fatalf("Coalesce(stddev): %v", err)
	}
	mustEquiv(t, e, g, co, "coalescing stddev")
}

// TestPullUpUserDefinedStdDev: pull-up defers a user-defined aggregate
// exactly like a built-in one.
func TestPullUpUserDefinedStdDev(t *testing.T) {
	e := newEnv(t, 61, 500, 10)
	g := &lplan.GroupBy{
		In:        e.scan(e.emp, "e2"),
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggUser, User: "stddev", Arg: expr.Col("e2", "sal"),
			Out: schema.ColID{Rel: "b", Name: "sd"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
			{E: expr.Col("b", "sd"), As: schema.ColID{Rel: "b", Name: "sd"}},
		},
	}
	e1 := e.scan(e.emp, "e1")
	j := &lplan.Join{
		L: e1,
		R: g,
		Preds: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
			expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "sd")),
		},
		Proj: []schema.ColID{{Rel: "e1", Name: "sal"}},
	}
	p2, err := PullUp(j)
	if err != nil {
		t.Fatalf("PullUp(stddev): %v", err)
	}
	mustEquiv(t, e, j, p2, "pull-up stddev")
}
