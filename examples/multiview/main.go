// Multiview: a query joining two aggregate views (the paper's Figure 5
// scenario) — per-department average and maximum salaries compared side by
// side with the department's budget — optimized with the multi-view
// two-phase algorithm of Section 5.4.
package main

import (
	"context"
	"fmt"
	"log"

	"aggview"
)

func main() {
	eng := aggview.Open(aggview.Config{PoolPages: 32})
	spec := aggview.DefaultEmpDept()
	spec.Employees = 20000
	spec.Departments = 250
	if err := eng.LoadEmpDept(spec); err != nil {
		log.Fatal(err)
	}

	// Named views, as a warehouse would define them.
	must(eng.Exec(`create view avg_sal (dno, asal) as
		select dno, avg(sal) from emp group by dno`))
	must(eng.Exec(`create view max_sal (dno, msal) as
		select dno, max(sal) from emp group by dno`))

	q := `
		select d.dno, v1.asal, v2.msal, d.budget
		from avg_sal v1, max_sal v2, dept d, emp boss
		where v1.dno = d.dno and v2.dno = d.dno and boss.dno = d.dno
		  and boss.age < 21 and boss.sal > v1.asal
		order by msal desc limit 8`

	res, err := eng.Query(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("departments where a young employee out-earns the average:")
	fmt.Print(res.String())

	// The enumeration effort behind it: candidate pull sets per view and
	// phase-2 combinations (Section 5.4's two steps, Figure 5).
	for _, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.Full} {
		info, err := eng.Explain(context.Background(), q, aggview.WithMode(mode))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %v: cost %.1f, pull-up candidates %d, phase-2 runs %d\n",
			mode, info.EstimatedCost, info.Search.PullUpCandidates, info.Search.Phase2Runs)
	}
}

func must(res *aggview.Result, err error) *aggview.Result {
	if err != nil {
		log.Fatal(err)
	}
	return res
}
