package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"aggview"
	"aggview/internal/core"
	"aggview/internal/datagen"
	"aggview/internal/schema"
	"aggview/internal/types"
)

func init() {
	register("E7", "Section 5 guarantee: the extended optimizer is never worse than the traditional one", runE7)
	register("E8", "Search-space growth: traditional vs greedy conservative DP effort per relation count", runE8)
	register("E9", "Practical restrictions: k-level pull-up and predicate sharing vs candidates and cost", runE9)
}

func runE7(quick bool) (*Table, error) {
	trials := 12
	baseEmp := 30000
	pool := 16
	if quick {
		trials, baseEmp, pool = 5, 8000, 8
	}
	t := &Table{
		ID:     "E7",
		Title:  "Never-worse check over randomized databases and queries (est cost, page IOs)",
		Header: []string{"trial", "query", "est trad", "est full", "regression?", "io trad", "io full", "rows match"},
	}
	strictWins := 0
	r := rand.New(rand.NewSource(99))
	for i := 0; i < trials; i++ {
		nDept := []int{10, 100, 1000, 4000}[r.Intn(4)]
		spec := aggview.DefaultEmpDept()
		spec.Seed = int64(1000 + i)
		spec.Employees = baseEmp/2 + r.Intn(baseEmp)
		spec.Departments = nDept
		cfg := aggview.Config{PoolPages: pool, SystemRJoins: i%2 == 1}
		e, err := empDeptEngineCfg(cfg, spec)
		if err != nil {
			return nil, err
		}
		var q, label string
		switch i % 3 {
		case 0:
			cut := 19 + r.Intn(40)
			q, label = example1SQL(cut), fmt.Sprintf("example1 age<%d", cut)
		case 1:
			cut := spec.BudgetMin + r.Float64()*spec.BudgetSpan
			q = fmt.Sprintf(`select e.dno, avg(e.sal) from emp e, dept d
				where e.dno = d.dno and d.budget < %.0f group by e.dno`, cut)
			label = "example2"
		default:
			cut := 19 + r.Intn(30)
			q = fmt.Sprintf(`
				select e1.sal, d.budget from emp e1, dept d,
				  (select dno, min(sal) as msal from emp group by dno) v
				where e1.dno = d.dno and v.dno = d.dno and e1.age < %d and e1.sal > v.msal`, cut)
			label = fmt.Sprintf("view+2 rels age<%d", cut)
		}
		runs, err := runUnderModes(e, q, []aggview.OptimizerMode{aggview.Traditional, aggview.Full})
		if err != nil {
			return nil, fmt.Errorf("trial %d (%s): %w", i, label, err)
		}
		tr, fu := runs[aggview.Traditional], runs[aggview.Full]
		reg := "no"
		if fu.cost > tr.cost+1e-6 {
			reg = "YES (BUG)"
		}
		if fu.cost < tr.cost-1e-6 {
			strictWins++
		}
		t.Rows = append(t.Rows, []string{
			itoa(i), label, f1(tr.cost), f1(fu.cost), reg,
			itoa(int(tr.io)), itoa(int(fu.io)), "yes",
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("full mode strictly cheaper in %d/%d trials; never worse in all", strictWins, trials))
	return t, nil
}

func runE8(quick bool) (*Table, error) {
	// A single-block star query with group-by: emp joined with k copies of
	// dept-like dimension tables, aggregating emp.sal per emp.dno.
	maxDims := 5
	nEmp := 20000
	pool := 24
	if quick {
		maxDims, nEmp, pool = 3, 3000, 12
	}
	t := &Table{
		ID:    "E8",
		Title: "DP effort: states and plans considered, traditional vs greedy conservative",
		Header: []string{"relations", "states trad", "states greedy", "plans trad", "plans greedy",
			"placements", "est trad", "est greedy"},
		Notes: []string{"[CS94]: 'very moderate increase in search space while often producing significantly better plans'"},
	}
	for dims := 1; dims <= maxDims; dims++ {
		e := aggview.Open(aggview.Config{PoolPages: pool})
		spec := aggview.DefaultEmpDept()
		spec.Employees, spec.Departments = nEmp, 200
		if err := e.LoadEmpDept(spec); err != nil {
			return nil, err
		}
		// Extra dimension tables dim1..dimk keyed on dno.
		for d := 1; d <= dims-1; d++ {
			e.MustExec(fmt.Sprintf(`create table dim%d (dno int primary key, attr%d int)`, d, d))
			for v := 0; v < 200; v++ {
				e.MustExec(fmt.Sprintf(`insert into dim%d values (%d, %d)`, d, v, v%7))
			}
		}
		e.MustExec(`analyze`)

		q := `select e.dno, sum(e.sal) from emp e, dept d`
		where := ` where e.dno = d.dno`
		for d := 1; d <= dims-1; d++ {
			q += fmt.Sprintf(`, dim%d x%d`, d, d)
			where += fmt.Sprintf(` and e.dno = x%d.dno`, d)
		}
		q += where + ` group by e.dno`

		tradInfo, err := e.Explain(context.Background(), q, aggview.WithMode(aggview.Traditional))
		if err != nil {
			return nil, err
		}
		pushInfo, err := e.Explain(context.Background(), q, aggview.WithMode(aggview.PushDown))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(dims + 1),
			itoa(tradInfo.Search.States), itoa(pushInfo.Search.States),
			itoa(tradInfo.Search.PlansConsidered), itoa(pushInfo.Search.PlansConsidered),
			itoa(pushInfo.Search.GroupPlacements),
			f1(tradInfo.EstimatedCost), f1(pushInfo.EstimatedCost),
		})
	}
	return t, nil
}

func runE9(quick bool) (*Table, error) {
	nEmp, nDept := 30000, 1000
	pool := 24
	ks := []int{1, 2, 3, 0}
	if quick {
		nEmp, nDept, pool = 4000, 150, 12
		ks = []int{1, 0}
	}
	// One view plus three base relations connected by predicates: a rich
	// pull-up space.
	f, err := newFixture(pool, datagen.DefaultEmpDept().Seed, nEmp, nDept)
	if err != nil {
		return nil, err
	}
	extra := []struct {
		name, key, col string
		rows           int
		val            func(v int) int
	}{
		{"region", "dno", "rcode", nDept, func(v int) int { return v % 11 }},
		// A relation with no predicate linking it to anything (a genuine
		// cross join): only the shared-predicate restriction keeps it out
		// of W.
		{"quota", "qid", "cap", 3, func(v int) int { return 100 * v }},
	}
	for _, x := range extra {
		tbl, err := f.cat.CreateTable(x.name, []schema.Column{
			{ID: schema.ColID{Name: x.key}, Type: types.KindInt},
			{ID: schema.ColID{Name: x.col}, Type: types.KindInt},
		}, []string{x.key}, nil)
		if err != nil {
			return nil, err
		}
		for v := 0; v < x.rows; v++ {
			if err := f.cat.Insert(tbl, types.Row{types.NewInt(int64(v)), types.NewInt(int64(x.val(v)))}); err != nil {
				return nil, err
			}
		}
	}
	for _, name := range f.cat.TableNames() { // what `analyze` does
		tbl, _ := f.cat.Table(name)
		if err := f.cat.Analyze(tbl); err != nil {
			return nil, err
		}
	}

	q := `
		select e1.sal from emp e1, dept d, region r, quota qq,
		  (select dno, avg(sal) as asal from emp group by dno) b
		where e1.dno = b.dno and e1.dno = d.dno and d.dno = r.dno
		  and e1.age < 21 and e1.sal > b.asal and r.rcode < 6 and qq.cap > 0`

	t := &Table{
		ID:     "E9",
		Title:  "k-level pull-up and predicate sharing: candidates enumerated vs plan quality",
		Header: []string{"k", "shared-pred", "pull-up cands", "phase-2 runs", "plans", "est cost"},
		Notes: []string{"with equality-class inference, transitively joined relations always share a (derived) predicate;",
			"the restriction's remaining bite is the cross-joined quota relation, which only unrestricted mode pulls"},
	}
	for _, k := range ks {
		for _, shared := range []bool{true, false} {
			bound, err := f.bind(q)
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions() // Full mode
			opts.PoolPages = pool
			opts.KLevelPullUp, opts.RequireSharedPredicate = k, shared // k = 0 is the ∞ row
			plan, err := core.Optimize(bound, opts)
			if err != nil {
				return nil, err
			}
			sharedStr := "yes"
			if !shared {
				sharedStr = "no"
			}
			kStr := itoa(k)
			if k == 0 {
				kStr = "∞"
			}
			t.Rows = append(t.Rows, []string{
				kStr, sharedStr,
				itoa(plan.Stats.PullUpCandidates), itoa(plan.Stats.Phase2Runs),
				itoa(plan.Stats.PlansConsidered), f1(plan.Cost),
			})
		}
	}
	return t, nil
}
