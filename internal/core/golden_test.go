package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggview/internal/binder"
	"aggview/internal/catalog"
	"aggview/internal/datagen"
	"aggview/internal/qblock"
	"aggview/internal/sql"
	"aggview/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search.golden from the current code")

// goldenCase is one query of the search differential.
type goldenCase struct {
	name string
	sql  string
}

// adhocGoldenCases are adhoc-plan's seven template shapes (SQL copied from
// bench/workloads.go, each %s replaced by its first literal).
var adhocGoldenCases = []goldenCase{
	{"view-join-filter", `select p.brand, l.qty from lineitem l, part p, part_qty v
		where l.partkey = p.partkey and v.partkey = p.partkey and p.brand < 5 and l.qty < v.aqty and l.qty > 0.5`},
	{"two-views-join", `select v.aqty, o.value from part_qty v, order_value o, lineitem l
		where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 40.5`},
	{"grouped-having-over-view", `select p.brand, max(v.aqty) from part p, part_qty v
		where v.partkey = p.partkey and p.size > 0.5 group by p.brand having max(v.aqty) > 10`},
	{"star-4", `select c.nation, sum(l.qty) as q, count(*) as n from lineitem l, orders o, customer c, part p
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.partkey = p.partkey and p.brand < 10 and l.qty > 5.5
		group by c.nation`},
	{"star-5", `select s.nation, c.segment, count(*) as n from lineitem l, orders o, customer c, part p, supplier s
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.partkey = p.partkey and l.suppkey = s.suppkey
		and p.size < 20 and l.qty > 5.5 group by s.nation, c.segment`},
	{"star-6-over-view", `select c.nation, max(v.aqty) as m from lineitem l, orders o, customer c, part p, supplier s, part_qty v
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.partkey = p.partkey and l.suppkey = s.suppkey
		and v.partkey = p.partkey and s.nation < 10 and l.qty > 5.5 group by c.nation`},
	{"example1-nested", `select l.qty from lineitem l where l.discount < 0.03 and l.qty > 0.5
		and l.qty > (select avg(l2.qty) from lineitem l2 where l2.partkey = l.partkey)`},
}

// warehouseGoldenViews are adhoc-plan's two virtual aggregate views.
var warehouseGoldenViews = []string{
	`create view part_qty (partkey, aqty) as select partkey, avg(qty) from lineitem group by partkey`,
	`create view order_value (orderkey, value) as select orderkey, sum(price) from lineitem group by orderkey`,
}

// empDeptGoldenCases are the paper's Example 1 and Figure 5 queries as
// internal/experiments states them (E1, E6), a three-view join, and an
// outer-join chain (which bypasses the DP).
var empDeptGoldenCases = []goldenCase{
	{"paper-example1", `select e1.sal from emp e1
		where e1.age < 20
		  and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`},
	{"paper-figure5-two-views", `select b1.asal, b2.msal, d.budget
		from (select dno, avg(sal) as asal from emp group by dno) b1,
		     (select dno, max(sal) as msal from emp group by dno) b2,
		     dept d, emp e1
		where b1.dno = d.dno and b2.dno = d.dno and e1.dno = d.dno
		  and e1.age < 21 and e1.sal > b1.asal`},
	{"three-views", `select d.budget, b1.asal, b2.msal, b3.n
		from dept d,
		     (select dno, avg(sal) as asal from emp group by dno) b1,
		     (select dno, max(sal) as msal from emp group by dno) b2,
		     (select dno, count(*) as n from emp where age < 30 group by dno) b3
		where b1.dno = d.dno and b2.dno = d.dno and b3.dno = d.dno and d.budget < 500000`},
	{"outer-chain", `select d.dno, count(e.eno) as n, max(e2.sal) as m
		from dept d left join emp e on e.dno = d.dno and e.age < 30
		     left join emp e2 on e2.dno = d.dno
		where d.budget < 600000 group by d.dno`},
}

// goldenCatalog loads a catalog and runs the set-up DDL.
func goldenCatalog(t testing.TB, load func(*catalog.Catalog) error, ddl []string) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewStore(64))
	if err := load(cat); err != nil {
		t.Fatal(err)
	}
	for _, src := range ddl {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		cv, ok := stmt.(*sql.CreateView)
		if !ok {
			t.Fatalf("set-up statement is not CREATE VIEW: %s", src)
		}
		if _, err := cat.CreateView(cv.Name, cv.Cols, cv.Text); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func bindGolden(t testing.TB, cat *catalog.Catalog, src string) *qblock.Query {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	bound, err := binder.BindSelect(cat.Snapshot(), stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return bound.Query
}

// goldenGroup is a catalog with the queries planned against it.
type goldenGroup struct {
	cat   *catalog.Catalog
	cases []goldenCase
}

func goldenGroups(t testing.TB) []goldenGroup {
	t.Helper()
	warehouse := goldenCatalog(t, func(c *catalog.Catalog) error {
		return datagen.LoadTPCD(c, datagen.TPCDSpec{Seed: 1, Lineitems: 400})
	}, warehouseGoldenViews)
	empDept := goldenCatalog(t, func(c *catalog.Catalog) error {
		spec := datagen.DefaultEmpDept()
		spec.Employees, spec.Departments = 6000, 2000
		return datagen.LoadEmpDept(c, spec)
	}, nil)
	return []goldenGroup{{warehouse, adhocGoldenCases}, {empDept, empDeptGoldenCases}}
}

// TestSearchGolden is the search differential: for every query × mode ×
// join repertoire × pool size it pins the chosen plan's EXPLAIN text, the
// bit patterns of its estimated cost and cardinality, the search counters
// and the search trace. testdata/search.golden was generated by the commit
// before the search memo existed; any change to which plans the enumerator
// considers, in which order, or to the float arithmetic of the cost model
// shows up as a diff. Regenerate only deliberately, with -update.
func TestSearchGolden(t *testing.T) {
	var b strings.Builder
	for _, g := range goldenGroups(t) {
		for _, c := range g.cases {
			q := bindGolden(t, g.cat, c.sql)
			for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
				for _, noHash := range []bool{false, true} {
					for _, pool := range []int{8, 256} {
						opts := DefaultOptions()
						opts.Mode, opts.NoHashJoin, opts.PoolPages = mode, noHash, pool
						opts.Trace = NewSearchTrace()
						plan, err := Optimize(q, opts)
						if err != nil {
							t.Fatalf("%s mode=%v nohash=%v pool=%d: %v", c.name, mode, noHash, pool, err)
						}
						fmt.Fprintf(&b, "=== %s mode=%v nohash=%v pool=%d\n", c.name, mode, noHash, pool)
						fmt.Fprintf(&b, "cost=%#016x rows=%#016x (%.3f, %.3f)\n",
							math.Float64bits(plan.Cost), math.Float64bits(plan.Info.Rows), plan.Cost, plan.Info.Rows)
						fmt.Fprintf(&b, "stats: %s\n", plan.Stats)
						fmt.Fprintf(&b, "plan:\n%strace:\n%s", plan.Explain(), opts.Trace)
					}
				}
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "search.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/core -run TestSearchGolden -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "=== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("search differs from testdata/search.golden at line %d, in %s\n got: %s\nwant: %s", i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("search output length differs from testdata/search.golden: %d lines, want %d", len(gl), len(wl))
}

// TestTickBudgetSurfacesAtPlanK sweeps the plan at which Options.Tick fails
// over a whole small search: the error must surface on exactly the k-th
// costed candidate — the search makes no costing progress it does not poll
// for — and one plan past the end must succeed having ticked once per plan
// considered. The plan count is pinned so a change to the number of polls
// cannot hide behind a matching change to the sweep's length.
func TestTickBudgetSurfacesAtPlanK(t *testing.T) {
	const wantPlans = 135 // view-join-filter, Full, pool 256 in testdata/search.golden
	g := goldenGroups(t)[0]
	q := bindGolden(t, g.cat, g.cases[0].sql)
	errBudget := fmt.Errorf("budget")
	for k := 1; k <= wantPlans+1; k++ {
		ticks := 0
		opts := DefaultOptions()
		opts.PoolPages = 256
		opts.Tick = func() error {
			ticks++
			if ticks == k {
				return errBudget
			}
			return nil
		}
		plan, err := Optimize(q, opts)
		if k <= wantPlans {
			if err != errBudget {
				t.Fatalf("k=%d: err = %v, want the Tick error", k, err)
			}
			if ticks != k {
				t.Fatalf("k=%d: search polled %d times before surfacing the error", k, ticks)
			}
			continue
		}
		if err != nil {
			t.Fatalf("k=%d (past the end): %v", k, err)
		}
		if ticks != wantPlans || plan.Stats.PlansConsidered != wantPlans {
			t.Fatalf("ticks=%d plans=%d, want %d", ticks, plan.Stats.PlansConsidered, wantPlans)
		}
	}
}
