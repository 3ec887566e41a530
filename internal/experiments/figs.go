package experiments

import (
	"context"
	"fmt"

	"aggview"
)

func init() {
	register("E6", "Figure 5: two-phase optimization of a query with two aggregate views", runE6)
}

// runE6 reproduces Figure 5: a join of two aggregate views and base
// relations, optimized under each mode, reporting the enumeration effort
// (pull-up candidates, phase-2 runs) and the chosen plan costs.
func runE6(quick bool) (*Table, error) {
	nEmp, nDept := 30000, 10000
	pool := 40
	if quick {
		nEmp, nDept, pool = 6000, 2000, 8
	}
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = nEmp, nDept
	e, err := empDeptEngine(pool, spec)
	if err != nil {
		return nil, err
	}

	// Two views (avg and max salary per department) joined with dept and a
	// filtered emp — Figure 5's V1 ⋈ V2 ⋈ B1 ⋈ B2 shape.
	q := `
		select b1.asal, b2.msal, d.budget
		from (select dno, avg(sal) as asal from emp group by dno) b1,
		     (select dno, max(sal) as msal from emp group by dno) b2,
		     dept d, emp e1
		where b1.dno = d.dno and b2.dno = d.dno and e1.dno = d.dno
		  and e1.age < 21 and e1.sal > b1.asal`

	t := &Table{
		ID:     "E6",
		Title:  "Two aggregate views (Figure 5): per-mode plan cost and enumeration effort",
		Header: []string{"mode", "est cost", "io", "rows", "pull-up cands", "phase-2 runs", "dp states"},
	}
	var refRows = -1
	for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full} {
		res, err := e.Query(context.Background(), q, aggview.WithMode(mode), aggview.WithColdCache())
		if err != nil {
			return nil, fmt.Errorf("mode %v: %w", mode, err)
		}
		info, io := res.Plan, res.IO
		if refRows < 0 {
			refRows = res.Len()
		} else if res.Len() != refRows {
			return nil, fmt.Errorf("mode %v rows = %d, want %d", mode, res.Len(), refRows)
		}
		t.Rows = append(t.Rows, []string{
			mode.String(), f1(info.EstimatedCost), itoa(int(io.Total())), itoa(res.Len()),
			itoa(info.Search.PullUpCandidates), itoa(info.Search.Phase2Runs), itoa(info.Search.States),
		})
	}
	return t, nil
}
