package experiments

import (
	"context"
	"fmt"

	"aggview"
)

func init() {
	register("E1", "Example 1: A1/A2 (view) vs B (pull-up) crossover over department count and age selectivity", runE1)
	register("E2", "Example 2: invariant grouping push-down vs group-by-last over budget selectivity", runE2)
	register("E11", "Section 5.2: greedy conservative heuristic on a single block with group-by", runE11)
	register("E12", "Section 3 ablation: pull-up benefit vs tuple width (payload columns)", runE12)
}

// empDeptEngine builds an engine over a generated emp/dept database.
func empDeptEngine(pool int, spec aggview.EmpDeptSpec) (*aggview.Engine, error) {
	return empDeptEngineCfg(aggview.Config{PoolPages: pool}, spec)
}

// empDeptEngineCfg is empDeptEngine with a full engine configuration.
func empDeptEngineCfg(cfg aggview.Config, spec aggview.EmpDeptSpec) (*aggview.Engine, error) {
	e := aggview.Open(cfg)
	if err := e.LoadEmpDept(spec); err != nil {
		return nil, err
	}
	return e, nil
}

// modeRun captures one (mode, query) evaluation.
type modeRun struct {
	cost float64
	io   int64
	rows int
}

// runUnderModes evaluates the query under the given modes on one engine.
func runUnderModes(e *aggview.Engine, query string, modes []aggview.OptimizerMode) (map[aggview.OptimizerMode]modeRun, error) {
	out := map[aggview.OptimizerMode]modeRun{}
	var wantRows = -1
	for _, m := range modes {
		res, err := e.Query(context.Background(), query, aggview.WithMode(m), aggview.WithColdCache())
		if err != nil {
			return nil, fmt.Errorf("mode %v: %w", m, err)
		}
		info, io := res.Plan, res.IO
		if wantRows < 0 {
			wantRows = res.Len()
		} else if res.Len() != wantRows {
			return nil, fmt.Errorf("mode %v returned %d rows, expected %d (plans disagree!)", m, res.Len(), wantRows)
		}
		out[m] = modeRun{cost: info.EstimatedCost, io: io.Total(), rows: res.Len()}
	}
	return out, nil
}

// example1SQL is the nested form of the paper's Example 1; the binder
// flattens it into the A1/A2 canonical form.
func example1SQL(ageCut int) string {
	return fmt.Sprintf(`
		select e1.sal from emp e1
		where e1.age < %d
		  and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`, ageCut)
}

func runE1(quick bool) (*Table, error) {
	nEmp := 60000
	depts := []int{100, 2000, 20000}
	ageCuts := []int{20, 35, 50} // ~4%, ~34%, ~64% of employees (ages 18..68)
	pool := 32
	if quick {
		nEmp, depts, ageCuts, pool = 8000, []int{10, 4000}, []int{20, 50}, 8
	}

	t := &Table{
		ID:    "E1",
		Title: "Example 1 crossover: traditional (view A1/A2) vs full optimizer (may pull up)",
		Header: []string{"departments", "age<", "est trad", "est full", "est gain",
			"io trad", "io full", "io gain", "rows"},
		Notes: []string{
			"the paper: 'if there are many departments but few employees younger than 22, query B [pull-up] may be more efficient;",
			"if there are few departments but many young employees, A1/A2 [the view] may be significantly less expensive'",
		},
	}
	for _, nd := range depts {
		spec := aggview.DefaultEmpDept()
		spec.Employees, spec.Departments = nEmp, nd
		e, err := empDeptEngine(pool, spec)
		if err != nil {
			return nil, err
		}
		for _, cut := range ageCuts {
			runs, err := runUnderModes(e, example1SQL(cut),
				[]aggview.OptimizerMode{aggview.Traditional, aggview.Full})
			if err != nil {
				return nil, err
			}
			tr, fu := runs[aggview.Traditional], runs[aggview.Full]
			t.Rows = append(t.Rows, []string{
				itoa(nd), itoa(cut),
				f1(tr.cost), f1(fu.cost), ratio(tr.cost, fu.cost),
				itoa(int(tr.io)), itoa(int(fu.io)), ratio(float64(tr.io), float64(fu.io)),
				itoa(fu.rows),
			})
		}
	}
	return t, nil
}

// e2SQL is Example 2's query with a budget filter passing about frac of
// the departments.
func e2SQL(spec aggview.EmpDeptSpec, frac float64) string {
	return fmt.Sprintf(`
		select e.dno, avg(e.sal) from emp e, dept d
		where e.dno = d.dno and d.budget < %.0f
		group by e.dno`, spec.BudgetMin+frac*spec.BudgetSpan)
}

func runE2(quick bool) (*Table, error) {
	// System-R join repertoire (the paper's era): a group-by that fits in
	// memory replaces the external sort of emp that a sort-merge join
	// would otherwise need. With many departments the group table spills
	// and the advantage evaporates; with a selective budget filter the
	// traditional plan's final group-by is nearly free.
	nEmp := 80000
	pool := 32
	depts := []int{500, 3000, 50000}
	cuts := []float64{0.05, 0.9}
	if quick {
		nEmp, pool = 20000, 16
		depts = []int{200, 2000, 20000}
		cuts = []float64{0.9}
	}

	t := &Table{
		ID:    "E2",
		Title: "Example 2 (System-R joins): group-by placement vs department count and budget selectivity",
		Header: []string{"departments", "budget sel", "est trad", "est push", "est gain",
			"io trad", "io push", "io gain", "rows"},
		Notes: []string{"query C vs D1/D2 of the paper; push-down mode may aggregate emp before joining dept"},
	}
	for _, nd := range depts {
		spec := aggview.DefaultEmpDept()
		spec.Employees, spec.Departments = nEmp, nd
		e, err := empDeptEngineCfg(aggview.Config{PoolPages: pool, SystemRJoins: true}, spec)
		if err != nil {
			return nil, err
		}
		for _, frac := range cuts {
			runs, err := runUnderModes(e, e2SQL(spec, frac),
				[]aggview.OptimizerMode{aggview.Traditional, aggview.PushDown})
			if err != nil {
				return nil, err
			}
			tr, pu := runs[aggview.Traditional], runs[aggview.PushDown]
			t.Rows = append(t.Rows, []string{
				itoa(nd), fmt.Sprintf("%.2f", frac),
				f1(tr.cost), f1(pu.cost), ratio(tr.cost, pu.cost),
				itoa(int(tr.io)), itoa(int(pu.io)), ratio(float64(tr.io), float64(pu.io)),
				itoa(pu.rows),
			})
		}
	}
	return t, nil
}

func runE11(quick bool) (*Table, error) {
	nEmp, nDept := 60000, 2000
	pool := 32
	if quick {
		nEmp, nDept, pool = 20000, 2000, 16
	}
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = nEmp, nDept
	e, err := empDeptEngineCfg(aggview.Config{PoolPages: pool, SystemRJoins: true}, spec)
	if err != nil {
		return nil, err
	}
	// Single-block group-by queries under System-R joins: invariant
	// grouping for the first two, simple coalescing for the third (its
	// grouping spans both relations), and no early placement for the
	// MEDIAN query (not decomposable).
	queries := []struct {
		label string
		sql   string
	}{
		{"sum(sal) by dno (invariant)", `
			select e.dno, sum(e.sal) from emp e, dept d
			where e.dno = d.dno group by e.dno`},
		{"avg(sal) by dno, selective dept filter", `
			select e.dno, avg(e.sal) from emp e, dept d
			where e.dno = d.dno and d.budget < 150000 group by e.dno`},
		{"count(*) by dno+budget (coalescing)", `
			select e.dno, d.budget, count(*) from emp e, dept d
			where e.dno = d.dno group by e.dno, d.budget`},
		{"median(sal) by dno+budget (no placement applies)", `
			select e.dno, d.budget, median(e.sal) from emp e, dept d
			where e.dno = d.dno group by e.dno, d.budget`},
		{"stddev(sal) by dno (user-defined, decomposable)", `
			select e.dno, stddev(e.sal) from emp e, dept d
			where e.dno = d.dno group by e.dno`},
	}
	t := &Table{
		ID:     "E11",
		Title:  "Single-block group-by (System-R joins): traditional vs greedy conservative",
		Header: []string{"query", "est trad", "est push", "est gain", "io trad", "io push", "io gain"},
	}
	for _, q := range queries {
		runs, err := runUnderModes(e, q.sql,
			[]aggview.OptimizerMode{aggview.Traditional, aggview.PushDown})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.label, err)
		}
		tr, pu := runs[aggview.Traditional], runs[aggview.PushDown]
		t.Rows = append(t.Rows, []string{
			q.label,
			f1(tr.cost), f1(pu.cost), ratio(tr.cost, pu.cost),
			itoa(int(tr.io)), itoa(int(pu.io)), ratio(float64(tr.io), float64(pu.io)),
		})
	}
	return t, nil
}

func runE12(quick bool) (*Table, error) {
	nEmp, nDept := 40000, 8000
	pool := 24
	payloads := []int{0, 4, 12}
	if quick {
		nEmp, nDept, pool = 6000, 3000, 8
		payloads = []int{0, 8}
	}
	t := &Table{
		ID:     "E12",
		Title:  "Pull-up ablation: wider tuples shrink the benefit of deferring the group-by",
		Header: []string{"payload cols", "tuple width", "est trad", "est full", "est gain", "io trad", "io full"},
		Notes:  []string{"Section 3 disadvantage (3): postponing the group-by enlarges intermediate tuples"},
	}
	for _, pc := range payloads {
		spec := aggview.DefaultEmpDept()
		spec.Employees, spec.Departments = nEmp, nDept
		spec.PayloadCols = pc
		e, err := empDeptEngine(pool, spec)
		if err != nil {
			return nil, err
		}
		q := `select e1.sal`
		for i := 0; i < pc; i++ {
			q += fmt.Sprintf(", e1.pad%d", i)
		}
		q += `
			from emp e1
			where e1.age < 20
			  and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`
		runs, err := runUnderModes(e, q,
			[]aggview.OptimizerMode{aggview.Traditional, aggview.Full})
		if err != nil {
			return nil, err
		}
		tr, fu := runs[aggview.Traditional], runs[aggview.Full]
		t.Rows = append(t.Rows, []string{
			itoa(pc), itoa(4*8 + pc*26),
			f1(tr.cost), f1(fu.cost), ratio(tr.cost, fu.cost),
			itoa(int(tr.io)), itoa(int(fu.io)),
		})
	}
	return t, nil
}
