package experiments

import (
	"fmt"

	"aggview/internal/core"
	"aggview/internal/datagen"
)

func init() {
	register("E6", "Figure 5: two-phase optimization of a query with two aggregate views", runE6)
}

// runE6 reproduces Figure 5: a join of two aggregate views and base
// relations, optimized under each mode, reporting the enumeration effort
// (pull-up candidates, phase-2 runs, DP states) of the paper's search space
// — core.Alternatives', which prunes nothing — and the chosen plan's cost
// and the page IO of a cold run.
func runE6(quick bool) (*Table, error) {
	nEmp, nDept := 30000, 10000
	pool := 40
	if quick {
		nEmp, nDept, pool = 6000, 2000, 8
	}
	f, err := newFixture(pool, datagen.DefaultEmpDept().Seed, nEmp, nDept)
	if err != nil {
		return nil, err
	}

	// Two views (avg and max salary per department) joined with dept and a
	// filtered emp — Figure 5's V1 ⋈ V2 ⋈ B1 ⋈ B2 shape.
	q, err := f.bind(`
		select b1.asal, b2.msal, d.budget
		from (select dno, avg(sal) as asal from emp group by dno) b1,
		     (select dno, max(sal) as msal from emp group by dno) b2,
		     dept d, emp e1
		where b1.dno = d.dno and b2.dno = d.dno and e1.dno = d.dno
		  and e1.age < 21 and e1.sal > b1.asal`)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "E6",
		Title:  "Two aggregate views (Figure 5): per-mode plan cost and enumeration effort",
		Header: []string{"mode", "est cost", "io", "rows", "pull-up cands", "phase-2 runs", "dp states"},
	}
	var refRows = -1
	for _, mode := range []core.Mode{core.ModeTraditional, core.ModePushDown, core.ModeFull} {
		opts := core.DefaultOptions()
		opts.Mode, opts.PoolPages = mode, pool
		_, search, err := core.Alternatives(q, opts)
		if err != nil {
			return nil, fmt.Errorf("mode %v: %w", mode, err)
		}
		plan, err := core.Optimize(q, opts)
		if err != nil {
			return nil, fmt.Errorf("mode %v: %w", mode, err)
		}
		res, io, err := f.coldRun(plan.Root)
		if err != nil {
			return nil, fmt.Errorf("mode %v: %w", mode, err)
		}
		if refRows < 0 {
			refRows = len(res.Rows)
		} else if len(res.Rows) != refRows {
			return nil, fmt.Errorf("mode %v rows = %d, want %d", mode, len(res.Rows), refRows)
		}
		t.Rows = append(t.Rows, []string{
			mode.String(), f1(plan.Cost), itoa(int(io)), itoa(len(res.Rows)),
			itoa(search.PullUpCandidates), itoa(search.Phase2Runs), itoa(search.States),
		})
	}
	return t, nil
}
