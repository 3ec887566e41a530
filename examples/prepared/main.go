// Prepared statements: compile once, execute many.
//
// The paper's optimizer (DP join enumeration plus group-by pull-up /
// push-down search) is worth its cost precisely because a good plan can be
// reused. This program prepares one parameterized query, runs it with
// several parameter values off the same cached plan, shows the plan-cache
// provenance of each run, and then demonstrates invalidation: an INSERT
// bumps the catalog version and the next execution transparently
// recompiles.
package main

import (
	"context"
	"fmt"
	"log"

	"aggview"
)

func main() {
	eng := aggview.Open(aggview.Config{PoolPages: 24})
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = 20000, 500
	if err := eng.LoadEmpDept(spec); err != nil {
		log.Fatal(err)
	}

	// `?` placeholders become positional parameters. Prepare parses, binds
	// and optimizes now; errors in the statement surface here.
	stmt, err := eng.Prepare(`
		select e1.sal from emp e1
		where e1.age < ?
		  and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)
		order by sal desc limit 3`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared %q with %d parameter(s)\n\n", "age < ? over avg-by-dept", stmt.NumParams())

	for _, ageCut := range []int{20, 30, 45} {
		res, err := stmt.QueryContext(context.Background(), ageCut)
		if err != nil {
			log.Fatal(err)
		}
		// CacheStatus "hit" means the run reused the compiled plan: zero
		// optimizer search (res.Plan.Search is all zeros on a hit).
		fmt.Printf("age < %-3d → %3d rows   plan cache: %-4s  dp states this run: %d\n",
			ageCut, res.Len(), res.Plan.CacheStatus, res.Plan.Search.States)
	}

	// DML bumps the catalog version; the cached plan is now stale and the
	// next execution recompiles against fresh statistics.
	eng.MustExec(`insert into emp values (99999, 0, 9000.0, 19)`)
	res, err := stmt.QueryContext(context.Background(), 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter INSERT → %3d rows   plan cache: %s (recompiled)\n",
		res.Len(), res.Plan.CacheStatus)

	// EXPLAIN ANALYZE on a prepared statement reports the provenance too.
	a, err := stmt.ExplainAnalyze(context.Background(), 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEXPLAIN ANALYZE (parameter 30):\n%s", a.String())
}
