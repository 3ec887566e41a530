package cost

import (
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// fixture builds emp (nEmp rows, dno uniform over nDept, age 20..69,
// sal floats) and dept (nDept rows) with analyzed stats.
type fixture struct {
	cat  *catalog.Catalog
	emp  *catalog.Table
	dept *catalog.Table
}

func newFixture(t *testing.T, nEmp, nDept int) *fixture {
	t.Helper()
	c := catalog.New(storage.NewStore(64))
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
	for i := 0; i < nEmp; i++ {
		if err := c.Insert(emp, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % nDept)),
			types.NewFloat(1000 + float64(i%977)),
			types.NewInt(int64(20 + i%50)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nDept; i++ {
		if err := c.Insert(dept, types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(500000 + i*1000)),
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
	return &fixture{cat: c, emp: emp, dept: dept}
}

func (f *fixture) scanEmp(alias string) *lplan.Scan {
	return &lplan.Scan{Alias: alias, Table: f.emp}
}
func (f *fixture) scanDept(alias string) *lplan.Scan {
	return &lplan.Scan{Alias: alias, Table: f.dept}
}

func TestScanInfo(t *testing.T) {
	f := newFixture(t, 10000, 100)
	m := NewModel(128, 0)
	info, err := m.Info(f.scanEmp("e"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 10000 {
		t.Errorf("Rows = %g", info.Rows)
	}
	if info.Cost != float64(f.emp.Stats.Pages) {
		t.Errorf("Cost = %g, want table pages %d", info.Cost, f.emp.Stats.Pages)
	}
	if got := info.Rel.Col(schema.ColID{Rel: "e", Name: "dno"}).NDV; got != 100 {
		t.Errorf("dno NDV = %g", got)
	}
}

func TestScanFilterReducesRowsNotCost(t *testing.T) {
	f := newFixture(t, 10000, 100)
	m := NewModel(128, 0)
	filtered := f.scanEmp("e")
	filtered.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(22))}
	fi, err := m.Info(filtered)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := m.Info(f.scanEmp("e2"))
	if fi.Cost != plain.Cost {
		t.Errorf("filter changed scan cost: %g vs %g", fi.Cost, plain.Cost)
	}
	// age uniform 20..69: age<22 selects ~2/50.
	if fi.Rows < 200 || fi.Rows > 800 {
		t.Errorf("filtered rows = %g, want ≈400", fi.Rows)
	}
}

func TestHashJoinFitsVsSpills(t *testing.T) {
	f := newFixture(t, 50000, 100)
	pred := expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))

	// Small build side (dept) fits: join adds no IO.
	m := NewModel(128, 0)
	j := &lplan.Join{L: f.scanEmp("e"), R: f.scanDept("d"),
		Preds: []expr.Expr{pred}, Method: lplan.JoinHash}
	ji, err := m.Info(j)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := m.Info(j.L)
	ri, _ := m.Info(j.R)
	if ji.Cost != li.Cost+ri.Cost {
		t.Errorf("fitting hash join should add no IO: %g vs %g", ji.Cost, li.Cost+ri.Cost)
	}
	if ji.Rows < 49000 || ji.Rows > 51000 {
		t.Errorf("join rows = %g, want ≈50000", ji.Rows)
	}

	// Big build side (emp as build, i.e. on the right) with a tiny pool spills.
	m2 := NewModel(4, 0)
	j2 := &lplan.Join{L: f.scanDept("d"), R: f.scanEmp("e"),
		Preds: []expr.Expr{pred}, Method: lplan.JoinHash}
	j2i, err := m2.Info(j2)
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := m2.Info(j2.L)
	r2, _ := m2.Info(j2.R)
	wantExtra := 2 * (l2.Pages + r2.Pages)
	if j2i.Cost != l2.Cost+r2.Cost+wantExtra {
		t.Errorf("grace join extra = %g, want %g", j2i.Cost-l2.Cost-r2.Cost, wantExtra)
	}
}

func TestBlockNLCost(t *testing.T) {
	f := newFixture(t, 20000, 100)
	m := NewModel(12, 0)
	j := &lplan.Join{L: f.scanEmp("e"), R: f.scanDept("d"),
		Preds:  []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "dno"), expr.Col("d", "dno"))},
		Method: lplan.JoinBlockNL}
	ji, err := m.Info(j)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := m.Info(j.L)
	ri, _ := m.Info(j.R)
	blocks := (li.Pages + 9) / 10 // M-2 = 10
	if want := li.Cost + ri.Cost + float64(int(blocks))*ri.Pages; ji.Cost < want-1 || ji.Cost > want+ri.Pages+1 {
		t.Errorf("block-nl cost = %g, want ≈%g", ji.Cost, want)
	}
}

func TestMergeJoinSortsUnsortedInputs(t *testing.T) {
	f := newFixture(t, 50000, 100)
	m := NewModel(8, 0)
	pred := expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))
	j := &lplan.Join{L: f.scanEmp("e"), R: f.scanDept("d"),
		Preds: []expr.Expr{pred}, Method: lplan.JoinMerge}
	ji, err := m.Info(j)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := m.Info(j.L)
	ri, _ := m.Info(j.R)
	if ji.Cost <= li.Cost+ri.Cost {
		t.Errorf("merge join over unsorted big inputs must pay sort IO")
	}
	if len(ji.Order) != 1 || ji.Order[0] != (schema.ColID{Rel: "e", Name: "dno"}) {
		t.Errorf("merge join order = %v", ji.Order)
	}
	// Pre-sorted inputs make the merge free.
	sj := &lplan.Join{
		L:     &lplan.Sort{In: f.scanEmp("e"), By: []schema.ColID{{Rel: "e", Name: "dno"}}},
		R:     &lplan.Sort{In: f.scanDept("d"), By: []schema.ColID{{Rel: "d", Name: "dno"}}},
		Preds: []expr.Expr{pred}, Method: lplan.JoinMerge,
	}
	si, err := m.Info(sj)
	if err != nil {
		t.Fatal(err)
	}
	sl, _ := m.Info(sj.L)
	sr, _ := m.Info(sj.R)
	if si.Cost != sl.Cost+sr.Cost {
		t.Errorf("pre-sorted merge join should add no IO: %g vs %g", si.Cost, sl.Cost+sr.Cost)
	}
}

func TestGroupByHashFitsVsSpills(t *testing.T) {
	f := newFixture(t, 100000, 10)
	g := &lplan.GroupBy{
		In:        f.scanEmp("e"),
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"),
			Out: schema.ColID{Rel: "v", Name: "asal"}}},
		Method: lplan.AggHash,
	}
	m := NewModel(128, 0)
	gi, err := m.Info(g)
	if err != nil {
		t.Fatal(err)
	}
	ii, _ := m.Info(g.In)
	if gi.Cost != ii.Cost {
		t.Errorf("10-group hash agg should be free: %g vs %g", gi.Cost, ii.Cost)
	}
	if gi.Rows != 10 {
		t.Errorf("groups = %g", gi.Rows)
	}

	// Group by eno (100k groups) with a tiny pool: spills.
	g2 := &lplan.GroupBy{
		In:        f.scanEmp("e"),
		GroupCols: []schema.ColID{{Rel: "e", Name: "eno"}},
		Aggs:      g.Aggs,
		Method:    lplan.AggHash,
	}
	m2 := NewModel(8, 0)
	g2i, err := m2.Info(g2)
	if err != nil {
		t.Fatal(err)
	}
	i2, _ := m2.Info(g2.In)
	if g2i.Cost != i2.Cost+2*i2.Pages {
		t.Errorf("spilling hash agg extra = %g, want %g", g2i.Cost-i2.Cost, 2*i2.Pages)
	}
}

func TestGroupBySortExploitsOrder(t *testing.T) {
	f := newFixture(t, 100000, 10)
	m := NewModel(8, 0)
	sorted := &lplan.Sort{In: f.scanEmp("e"), By: []schema.ColID{{Rel: "e", Name: "dno"}}}
	g := &lplan.GroupBy{
		In:        sorted,
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"),
			Out: schema.ColID{Rel: "v", Name: "s"}}},
		Method: lplan.AggSort,
	}
	gi, err := m.Info(g)
	if err != nil {
		t.Fatal(err)
	}
	si, _ := m.Info(sorted)
	if gi.Cost != si.Cost {
		t.Errorf("sort agg over sorted input should be free: %g vs %g", gi.Cost, si.Cost)
	}
	if len(gi.Order) != 1 {
		t.Errorf("sort agg should produce grouping order")
	}
}

func TestHavingSelectivityReducesRows(t *testing.T) {
	f := newFixture(t, 10000, 100)
	m := NewModel(128, 0)
	g := &lplan.GroupBy{
		In:        f.scanEmp("e"),
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"),
			Out: schema.ColID{Rel: "v", Name: "asal"}}},
		Having: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("v", "asal"), expr.IntLit(0))},
	}
	gi, err := m.Info(g)
	if err != nil {
		t.Fatal(err)
	}
	if gi.Rows >= 100 {
		t.Errorf("having should reduce estimated groups: %g", gi.Rows)
	}
}

func TestSortCostMonotone(t *testing.T) {
	m := NewModel(64, 0)
	if m.SortCost(10) != 0 {
		t.Errorf("in-memory sort should be free")
	}
	if m.SortCost(64) != 0 {
		t.Errorf("exactly-fitting sort should be free")
	}
	c1 := m.SortCost(1000)
	c2 := m.SortCost(10000)
	if c1 <= 0 || c2 <= c1 {
		t.Errorf("sort cost not monotone: %g %g", c1, c2)
	}
}

func TestCPUWeightBreaksTies(t *testing.T) {
	f := newFixture(t, 10000, 100)
	m0 := NewModel(128, 0)
	m1 := NewModel(128, 0.001)
	i0, _ := m0.Info(f.scanEmp("e"))
	i1, _ := m1.Info(f.scanEmp("e"))
	if i1.Cost <= i0.Cost {
		t.Errorf("CPU weight should add cost: %g vs %g", i1.Cost, i0.Cost)
	}
}

func TestMemoization(t *testing.T) {
	f := newFixture(t, 1000, 10)
	m := NewModel(128, 0)
	s := f.scanEmp("e")
	a, _ := m.Info(s)
	b, _ := m.Info(s)
	if a != b {
		t.Errorf("Info not memoized")
	}
}

func TestProjectAndFilterInfo(t *testing.T) {
	f := newFixture(t, 10000, 100)
	m := NewModel(128, 0)
	s := f.scanEmp("e")
	p := &lplan.Project{In: s, Items: []lplan.NamedExpr{
		{E: expr.Col("e", "dno"), As: schema.ColID{Rel: "o", Name: "dno"}},
	}}
	pi, err := m.Info(p)
	if err != nil {
		t.Fatal(err)
	}
	si, _ := m.Info(s)
	if pi.Width >= si.Width {
		t.Errorf("projection should narrow tuples: %d vs %d", pi.Width, si.Width)
	}
	if pi.Rel.Col(schema.ColID{Rel: "o", Name: "dno"}).NDV != 100 {
		t.Errorf("projection should preserve column stats")
	}

	fl := &lplan.Filter{In: s, Preds: []expr.Expr{
		expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.IntLit(1)),
	}}
	fi, err := m.Info(fl)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Rows < 90 || fi.Rows > 110 {
		t.Errorf("filter rows = %g, want ≈100", fi.Rows)
	}
}

// TestHashAndBlockNLJoinsClaimNoOrder: over an ordered left input, an
// in-memory hash join and block nested loops claim no order (lplan.Order):
// a Grace spill loses the probe order, and block nested loops emits
// inner-major within each outer block.
func TestHashAndBlockNLJoinsClaimNoOrder(t *testing.T) {
	f := newFixture(t, 1000, 10)
	m := NewModel(256, 0)
	sorted := &lplan.Sort{In: f.scanEmp("e"), By: []schema.ColID{{Rel: "e", Name: "dno"}}}
	pred := expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))
	for _, method := range []lplan.JoinMethod{lplan.JoinHash, lplan.JoinBlockNL} {
		j := &lplan.Join{L: sorted, R: f.scanDept("d"), Preds: []expr.Expr{pred}, Method: method}
		ji, err := m.Info(j)
		if err != nil {
			t.Fatal(err)
		}
		ri, _ := m.Info(j.R)
		if method == lplan.JoinHash && ri.Pages > float64(m.PoolPages-2) {
			t.Fatalf("build side of %g pages does not fit the pool: the test needs an in-memory hash join", ri.Pages)
		}
		if len(ji.Order) != 0 {
			t.Errorf("%v join over an ordered input: order = %v, want none", method, ji.Order)
		}
	}
}

func TestPrincipleOfOptimalityShape(t *testing.T) {
	// Cheaper input ⇒ cheaper identical parent: required by DP optimality.
	f := newFixture(t, 50000, 100)
	m := NewModel(16, 0)
	pred := expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))

	cheapL := f.scanDept("d")
	expL := &lplan.Sort{In: f.scanDept("d2"), By: []schema.ColID{{Rel: "d2", Name: "dno"}}}
	_ = expL

	jCheap := &lplan.Join{L: cheapL, R: f.scanEmp("e"), Preds: []expr.Expr{pred}, Method: lplan.JoinHash}
	ci, err := m.Info(jCheap)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := m.Info(cheapL)
	if ci.Cost < li.Cost {
		t.Errorf("parent cheaper than child: %g < %g", ci.Cost, li.Cost)
	}
}
