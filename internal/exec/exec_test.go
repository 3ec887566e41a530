package exec

import (
	"math/rand"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// env is a tiny emp/dept database with deterministic contents.
type env struct {
	store *storage.Store
	cat   *catalog.Catalog
	emp   *catalog.Table
	dept  *catalog.Table
}

func newEnv(t testing.TB, poolPages, nEmp, nDept int) *env {
	t.Helper()
	st := storage.NewStore(poolPages)
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
	r := rand.New(rand.NewSource(11))
	for i := 0; i < nEmp; i++ {
		if err := c.Insert(emp, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(nDept))),
			types.NewFloat(float64(1000 + r.Intn(4000))),
			types.NewInt(int64(20 + r.Intn(45))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nDept; i++ {
		if err := c.Insert(dept, types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(100000 + 1000*i)),
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

func (e *env) scanEmp(alias string) *lplan.Scan  { return &lplan.Scan{Alias: alias, Table: e.emp} }
func (e *env) scanDept(alias string) *lplan.Scan { return &lplan.Scan{Alias: alias, Table: e.dept} }

// runBoth executes the plan with the Volcano executor and the naive oracle
// and requires bag equality.
func runBoth(t *testing.T, e *env, n lplan.Node) *Result {
	t.Helper()
	got, err := New(e.store).Run(n)
	if err != nil {
		t.Fatalf("Run: %v\nplan:\n%s", err, lplan.Format(n))
	}
	want, err := Naive(e.store, n, nil)
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	if !BagEqual(got, want) {
		t.Fatalf("executor and oracle disagree (%d vs %d rows)\nplan:\n%s",
			len(got.Rows), len(want.Rows), lplan.Format(n))
	}
	return got
}

func TestScanAll(t *testing.T) {
	e := newEnv(t, 64, 500, 10)
	res := runBoth(t, e, e.scanEmp("e"))
	if len(res.Rows) != 500 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestScanFilterProj(t *testing.T) {
	e := newEnv(t, 64, 500, 10)
	s := e.scanEmp("e")
	s.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(25))}
	s.Proj = []schema.ColID{{Rel: "e", Name: "eno"}, {Rel: "e", Name: "age"}}
	res := runBoth(t, e, s)
	for _, r := range res.Rows {
		if len(r) != 2 || r[1].Int() >= 25 {
			t.Fatalf("bad row %v", r)
		}
	}
	if len(res.Rows) == 0 {
		t.Fatalf("filter killed everything")
	}
}

func TestScanWithTID(t *testing.T) {
	e := newEnv(t, 64, 100, 10)
	s := e.scanEmp("e")
	s.WithTID = true
	res := runBoth(t, e, s)
	seen := map[int64]bool{}
	for _, r := range res.Rows {
		tid := r[len(r)-1].Int()
		if seen[tid] {
			t.Fatalf("duplicate tid %d", tid)
		}
		seen[tid] = true
	}
}

func TestHashJoinInMemory(t *testing.T) {
	e := newEnv(t, 64, 1000, 20)
	j := &lplan.Join{
		L:      e.scanEmp("e"),
		R:      e.scanDept("d"),
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
		Method: lplan.JoinHash,
	}
	res := runBoth(t, e, j)
	if len(res.Rows) != 1000 {
		t.Fatalf("join rows = %d, want 1000", len(res.Rows))
	}
}

func TestHashJoinGraceSpill(t *testing.T) {
	// Tiny pool forces the Grace path; results must match the oracle.
	e := newEnv(t, 2, 3000, 30)
	j := &lplan.Join{
		L:      e.scanDept("d"),
		R:      e.scanEmp("e"), // big build side
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("d", "dno"), expr.Col("e", "dno"))},
		Method: lplan.JoinHash,
	}
	before := e.store.Stats()
	res := runBoth(t, e, j)
	if len(res.Rows) != 3000 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	delta := e.store.Stats().Sub(before)
	if delta.Writes == 0 {
		t.Fatalf("grace join should have spilled: %v", delta)
	}
}

func TestHashJoinResidualPredicate(t *testing.T) {
	e := newEnv(t, 64, 1000, 20)
	j := &lplan.Join{
		L: e.scanEmp("e"),
		R: e.scanDept("d"),
		Preds: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno")),
			expr.NewCmp(expr.GT, expr.Col("e", "sal"), expr.NewArith(expr.Div, expr.Col("d", "budget"), expr.IntLit(100))),
		},
		Method: lplan.JoinHash,
	}
	runBoth(t, e, j)
}

func TestJoinProjection(t *testing.T) {
	e := newEnv(t, 64, 300, 10)
	j := &lplan.Join{
		L:      e.scanEmp("e"),
		R:      e.scanDept("d"),
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
		Proj:   []schema.ColID{{Rel: "e", Name: "sal"}, {Rel: "d", Name: "budget"}},
		Method: lplan.JoinHash,
	}
	res := runBoth(t, e, j)
	if len(res.Schema) != 2 {
		t.Fatalf("schema = %s", res.Schema)
	}
}

func TestBlockNLJoinNonEqui(t *testing.T) {
	e := newEnv(t, 4, 300, 15)
	j := &lplan.Join{
		L:      e.scanEmp("e"),
		R:      e.scanDept("d"),
		Preds:  []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "dno"), expr.Col("d", "dno"))},
		Method: lplan.JoinBlockNL,
	}
	runBoth(t, e, j)
}

func TestBlockNLJoinMaterializedInner(t *testing.T) {
	e := newEnv(t, 4, 400, 15)
	inner := &lplan.Filter{
		In:    e.scanDept("d"),
		Preds: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("d", "dno"), expr.IntLit(2))},
	}
	j := &lplan.Join{
		L:      e.scanEmp("e"),
		R:      inner,
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
		Method: lplan.JoinBlockNL,
	}
	runBoth(t, e, j)
}

func TestCrossJoinViaUnsetMethodNoKeys(t *testing.T) {
	e := newEnv(t, 16, 50, 5)
	j := &lplan.Join{L: e.scanEmp("e"), R: e.scanDept("d"), Method: lplan.JoinHash}
	res := runBoth(t, e, j)
	if len(res.Rows) != 250 {
		t.Fatalf("cross join rows = %d", len(res.Rows))
	}
}

func TestMergeJoin(t *testing.T) {
	e := newEnv(t, 8, 2000, 25)
	j := &lplan.Join{
		L:      e.scanEmp("e"),
		R:      e.scanDept("d"),
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
		Method: lplan.JoinMerge,
	}
	res := runBoth(t, e, j)
	if len(res.Rows) != 2000 {
		t.Fatalf("merge join rows = %d", len(res.Rows))
	}
}

func TestMergeJoinDuplicateKeysBothSides(t *testing.T) {
	// Self-join on dno: many-to-many duplicates exercise group buffering.
	e := newEnv(t, 8, 300, 5)
	j := &lplan.Join{
		L:      e.scanEmp("a"),
		R:      e.scanEmp("b"),
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("a", "dno"), expr.Col("b", "dno"))},
		Method: lplan.JoinMerge,
	}
	runBoth(t, e, j)
}

func TestSortOperator(t *testing.T) {
	e := newEnv(t, 64, 500, 10)
	s := &lplan.Sort{In: e.scanEmp("e"), By: []schema.ColID{{Rel: "e", Name: "age"}, {Rel: "e", Name: "eno"}}}
	res, err := New(e.store).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][3].Int() > res.Rows[i][3].Int() {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestExternalSortSpills(t *testing.T) {
	e := newEnv(t, 2, 5000, 10)
	s := &lplan.Sort{In: e.scanEmp("e"), By: []schema.ColID{{Rel: "e", Name: "sal"}}}
	before := e.store.Stats()
	res, err := New(e.store).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5000 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][2].Float() > res.Rows[i][2].Float() {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if e.store.Stats().Sub(before).Writes == 0 {
		t.Fatalf("external sort should write runs")
	}
}

func groupByDno(e *env, method lplan.AggMethod) *lplan.GroupBy {
	return &lplan.GroupBy{
		In:        e.scanEmp("e2"),
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"), Out: schema.ColID{Rel: "v", Name: "asal"}},
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "cnt"}},
		},
		Method: method,
	}
}

func TestHashAggregate(t *testing.T) {
	e := newEnv(t, 64, 2000, 25)
	res := runBoth(t, e, groupByDno(e, lplan.AggHash))
	if len(res.Rows) != 25 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	var n int64
	for _, r := range res.Rows {
		n += r[2].Int()
	}
	if n != 2000 {
		t.Fatalf("counts sum to %d", n)
	}
}

func TestSortAggregate(t *testing.T) {
	e := newEnv(t, 64, 2000, 25)
	res := runBoth(t, e, groupByDno(e, lplan.AggSort))
	if len(res.Rows) != 25 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
}

func TestHashAggregateSpill(t *testing.T) {
	// Group by eno → 20000 singleton groups with a 2-page budget.
	e := newEnv(t, 2, 20000, 25)
	g := &lplan.GroupBy{
		In:        e.scanEmp("e"),
		GroupCols: []schema.ColID{{Rel: "e", Name: "eno"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggSum, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "v", Name: "s"}},
		},
		Method: lplan.AggHash,
	}
	before := e.store.Stats()
	got, err := New(e.store).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 20000 {
		t.Fatalf("groups = %d", len(got.Rows))
	}
	if e.store.Stats().Sub(before).Writes == 0 {
		t.Fatalf("hash aggregate should have partitioned to disk")
	}
}

func TestGroupByHavingAndOutputs(t *testing.T) {
	e := newEnv(t, 64, 2000, 25)
	g := groupByDno(e, lplan.AggHash)
	g.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("v", "cnt"), expr.IntLit(70))}
	g.Outputs = []lplan.NamedExpr{
		{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
		{E: expr.NewArith(expr.Mul, expr.Col("v", "asal"), expr.IntLit(2)), As: schema.ColID{Rel: "b", Name: "dbl"}},
	}
	res := runBoth(t, e, g)
	for _, r := range res.Rows {
		if len(r) != 2 {
			t.Fatalf("output arity %d", len(r))
		}
	}
}

func TestScalarAggregateOnEmptyInput(t *testing.T) {
	e := newEnv(t, 64, 100, 10)
	s := e.scanEmp("e")
	s.Filter = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e", "age"), expr.IntLit(999))}
	for _, method := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
		g := &lplan.GroupBy{
			In: s,
			Aggs: []expr.Agg{
				{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "cnt"}},
				{Kind: expr.AggMax, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "v", Name: "m"}},
			},
			Method: method,
		}
		res := runBoth(t, e, g)
		if len(res.Rows) != 1 {
			t.Fatalf("[%v] scalar agg rows = %d, want 1", method, len(res.Rows))
		}
		if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
			t.Fatalf("[%v] scalar agg = %v", method, res.Rows[0])
		}
	}
}

func TestMedianAggregate(t *testing.T) {
	e := newEnv(t, 64, 501, 5)
	g := &lplan.GroupBy{
		In:        e.scanEmp("e"),
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggMedian, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "v", Name: "med"}},
		},
		Method: lplan.AggHash,
	}
	runBoth(t, e, g)
}

// TestExample1BothShapes executes the paper's Example 1 in both forms —
// A1/A2 (aggregate view then join) and B (join then group-by with having) —
// and checks they return the same employee salaries. This is the executor-
// level ground truth behind the pull-up transformation tests.
func TestExample1BothShapes(t *testing.T) {
	e := newEnv(t, 32, 3000, 40)

	// Shape A: A1 = group emp by dno computing avg(sal); A2 = join.
	a1 := &lplan.GroupBy{
		In:        e.scanEmp("e2"),
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"), Out: schema.ColID{Rel: "b", Name: "asal"}},
		},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
			{E: expr.Col("b", "asal"), As: schema.ColID{Rel: "b", Name: "asal"}},
		},
		Method: lplan.AggHash,
	}
	e1 := e.scanEmp("e1")
	e1.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e1", "age"), expr.IntLit(22))}
	shapeA := &lplan.Join{
		L: e1,
		R: a1,
		Preds: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
			expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal")),
		},
		Proj:   []schema.ColID{{Rel: "e1", Name: "sal"}},
		Method: lplan.JoinHash,
	}

	// Shape B: join emp e1 with emp e2 on dno, group by (e2.dno, e1.eno,
	// e1.sal), having e1.sal > avg(e2.sal).
	e1b := e.scanEmp("e1")
	e1b.Filter = e1.Filter
	joinB := &lplan.Join{
		L:      e1b,
		R:      e.scanEmp("e2"),
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("e2", "dno"))},
		Method: lplan.JoinHash,
	}
	shapeB := &lplan.GroupBy{
		In: joinB,
		GroupCols: []schema.ColID{
			{Rel: "e2", Name: "dno"}, {Rel: "e1", Name: "eno"}, {Rel: "e1", Name: "sal"},
		},
		Aggs: []expr.Agg{
			{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"), Out: schema.ColID{Rel: "b", Name: "asal"}},
		},
		Having: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal"))},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e1", "sal"), As: schema.ColID{Rel: "", Name: "sal"}},
		},
		Method: lplan.AggHash,
	}

	resA := runBoth(t, e, shapeA)
	resB := runBoth(t, e, shapeB)
	if len(resA.Rows) == 0 {
		t.Fatalf("example query returned nothing; fixture too small")
	}
	if !BagEqual(resA, resB) {
		t.Fatalf("shape A (%d rows) != shape B (%d rows)", len(resA.Rows), len(resB.Rows))
	}
}

func TestInvalidPlanRejected(t *testing.T) {
	e := newEnv(t, 16, 10, 2)
	s := e.scanEmp("e")
	s.Filter = []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("zz", "x"), expr.IntLit(1))}
	if _, err := New(e.store).Run(s); err == nil {
		t.Fatalf("invalid plan accepted")
	}
	if _, err := Naive(e.store, s, nil); err == nil {
		t.Fatalf("naive accepted invalid plan")
	}
}

func TestBagEqualToleratesFloatNoise(t *testing.T) {
	a := &Result{Rows: []types.Row{{types.NewFloat(1.0 / 3.0)}}}
	b := &Result{Rows: []types.Row{{types.NewFloat((1.0/3.0)*3.0 - 2.0/3.0)}}}
	if !BagEqual(a, b) {
		t.Fatalf("float tolerance too strict")
	}
	c := &Result{Rows: []types.Row{{types.NewFloat(0.4)}}}
	if BagEqual(a, c) {
		t.Fatalf("different values compared equal")
	}
	d := &Result{}
	if BagEqual(a, d) {
		t.Fatalf("different cardinalities compared equal")
	}
}
