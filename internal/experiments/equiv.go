package experiments

import (
	"fmt"
	"slices"

	"aggview/internal/binder"
	"aggview/internal/catalog"
	"aggview/internal/core"
	"aggview/internal/datagen"
	"aggview/internal/exec"
	"aggview/internal/sql"
	"aggview/internal/storage"
)

func init() {
	register("E3", "Figure 1: pull-up equivalence P1 ↔ P2, estimated cost and measured IO of both shapes", runE3)
	register("E4", "Figure 2: push-down equivalences (invariant grouping, simple coalescing)", runE4)
	register("E5", "Figure 4: the four alternative executions for a query with one aggregate view", runE5)
}

// E3–E5 print the shapes of the paper's figures as the optimizer's own
// search builds them: each binds the figure's query and lists
// core.Alternatives — every complete plan the enumerator finalizes, the ones
// that lose on cost included — so the equivalence the tables check is that of
// the code the engine runs.

// fixture is an emp/dept database below the engine's SQL entry points, where
// a plan that lost the search can still be executed.
type fixture struct {
	store *storage.Store
	cat   *catalog.Catalog
}

func newFixture(pool int, seed int64, nEmp, nDept int) (*fixture, error) {
	st := storage.NewStore(pool)
	c := catalog.New(st)
	spec := datagen.DefaultEmpDept()
	spec.Seed, spec.Employees, spec.Departments = seed, nEmp, nDept
	if err := datagen.LoadEmpDept(c, spec); err != nil {
		return nil, err
	}
	return &fixture{store: st, cat: c}, nil
}

// shapeRows binds the statement, takes the cheapest alternative of each
// label (shape) the search finalizes under opts (with the fixture's pool),
// and returns one row per shape: the cells in lead, the label, the estimated
// cost, the page IO of a cold run, the row count, whether the result bag
// equals the first shape's, and a mark on the shape Optimize hands out.
func (f *fixture) shapeRows(src string, opts core.Options, lead ...string) ([][]string, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	bound, err := binder.BindSelect(f.cat.Snapshot(), stmt.(*sql.Select))
	if err != nil {
		return nil, err
	}
	opts.PoolPages = f.store.PoolPages()
	alts, err := core.Alternatives(bound.Query, opts)
	if err != nil {
		return nil, err
	}
	// One shape per label — the cheapest plan carrying it — in search order;
	// best is Optimize's pick, the cheapest plan, the first found winning ties.
	var shapes []core.Alternative
	best := alts[0]
	for _, a := range alts {
		if a.Cost < best.Cost {
			best = a
		}
		i := slices.IndexFunc(shapes, func(s core.Alternative) bool { return s.Label == a.Label })
		switch {
		case i < 0:
			shapes = append(shapes, a)
		case a.Cost < shapes[i].Cost:
			shapes[i] = a
		}
	}

	var rows [][]string
	var first *exec.Result
	for _, a := range shapes {
		f.store.ForceDropCaches()
		before := f.store.Stats()
		res, err := exec.New(f.store).Run(a.Root)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Label, err)
		}
		io := f.store.Stats().Sub(before).Total()
		if first == nil {
			first = res
		}
		equal := "YES"
		if !exec.BagEqual(first, res) {
			equal = "NO (BUG)"
		}
		mark := ""
		if a.Label == best.Label {
			mark = "<- chosen"
		}
		rows = append(rows, append(append([]string{}, lead...),
			a.Label, f1(a.Cost), itoa(int(io)), itoa(len(res.Rows)), equal, mark))
	}
	return rows, nil
}

func runE3(quick bool) (*Table, error) {
	configs := []struct {
		nEmp, nDept int
		ageCut      int
	}{
		{30000, 12000, 20}, // selective filter, many groups: pull-up should win
		{12000, 40, 60},    // few groups, unselective: original should win
	}
	pool := 24
	if quick {
		configs = []struct {
			nEmp, nDept int
			ageCut      int
		}{{6000, 4000, 20}, {2000, 20, 60}}
		pool = 12
	}
	t := &Table{
		ID:     "E3",
		Title:  "Pull-up (Definition 1): P1 = join-after-group vs P2 = group-after-join",
		Header: []string{"config", "shape", "est cost", "measured io", "rows", "equal", ""},
		Notes: []string{
			"both shapes are the search's own alternatives Φ(V′, W): W={} is the view as written, W={e1} pulls e1 through it",
			"equal=YES machine-checks Definition 1's equivalence by execution",
		},
	}
	for i, cfg := range configs {
		f, err := newFixture(pool, int64(100+i), cfg.nEmp, cfg.nDept)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("emp=%d dept=%d age<%d", cfg.nEmp, cfg.nDept, cfg.ageCut)
		rows, err := f.shapeRows(example1SQL(cfg.ageCut), core.DefaultOptions(), label)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// systemR is the search restricted to the join repertoire of the paper's era
// (no hash join), where the placement of a group-by moves whole sorts.
func systemR(mode core.Mode) core.Options {
	opts := core.DefaultOptions()
	opts.Mode, opts.NoHashJoin = mode, true
	return opts
}

func runE4(quick bool) (*Table, error) {
	nEmp, nDept := 30000, 500
	pool := 24
	if quick {
		nEmp, nDept, pool = 4000, 80, 12
	}
	f, err := newFixture(pool, 7, nEmp, nDept)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E4",
		Title:  "Push-down transformations: the group-by placements the search retains",
		Header: []string{"query", "placement", "est cost", "measured io", "rows", "equal", ""},
		Notes: []string{
			"placements are the search's own: eager = the group-by below the dept join (invariant grouping), coalescing = a partial pre-aggregate below it",
		},
	}
	for _, q := range []struct{ label, sql string }{
		// Example 2 (query C): dept joins on its key and the grouping column,
		// so the whole group-by may run before the join.
		{"Fig 2a: avg(sal) by e.dno", `select e.dno, avg(e.sal) from emp e, dept d
			where e.dno = d.dno and d.budget < 500000 group by e.dno`},
		// Grouped by a dept column: the group-by must wait for the join, a
		// partial sum per e.dno need not.
		{"Fig 2b: sum(sal) by d.budget", `select d.budget, sum(e.sal) from emp e, dept d
			where e.dno = d.dno and d.budget < 900000 group by d.budget`},
	} {
		rows, err := f.shapeRows(q.sql, systemR(core.ModePushDown), q.label)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// runE5 lists Figure 4's four executions. The query joins a filtered emp e1
// with the view "average salary per department" over emp ⋈ dept, dept joined
// on the grouping column; the search's four W sets for the view are exactly
// the figure's four plans.
func runE5(quick bool) (*Table, error) {
	nEmp, nDept := 40000, 3000
	pool := 24
	if quick {
		nEmp, nDept, pool = 5000, 1000, 12
	}
	f, err := newFixture(pool, 5, nEmp, nDept)
	if err != nil {
		return nil, err
	}
	rows, err := f.shapeRows(`
		select e1.sal
		from emp e1, (select e.dno, avg(e.sal) as asal from emp e, dept d
		              where e.dno = d.dno group by e.dno) b
		where e1.dno = b.dno and e1.sal > b.asal and e1.age < 20`, systemR(core.ModeFull))
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "E5",
		Title:  "Figure 4's four executions, costed and measured",
		Header: []string{"W", "est cost", "measured io", "rows", "equal", ""},
		Rows:   rows,
		Notes: []string{
			"W is what the view's group-by waits for beyond emp (d$2 is the view's dept): {d$2} traditional (view as written), {} push-down (G before the dept join), {d$2,e1} pull-up (G after the e1 join), {e1} push+pull (G over e⋈e1, dept last)",
			"the rows are every W set of the Full-mode search, one plan each — the cheapest of the retained join orders",
		},
	}, nil
}
