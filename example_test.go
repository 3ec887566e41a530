package aggview_test

import (
	"context"
	"fmt"

	"aggview"
)

// ExampleEngine_Query runs the paper's Example 1 as a nested subquery on a
// tiny hand-made database: employees under 22 earning above their
// department's average salary.
func ExampleEngine_Query() {
	eng := aggview.Open(aggview.Config{})
	eng.MustExec(`create table emp (eno int primary key, dno int, sal float, age int)`)
	eng.MustExec(`insert into emp values
		(1, 1, 100, 21), (2, 1, 50, 30), (3, 1, 60, 40),
		(4, 2, 80, 20), (5, 2, 90, 21), (6, 2, 10, 50)`)
	eng.MustExec(`analyze`)

	res, err := eng.Query(context.Background(), `
		select e1.eno, e1.sal from emp e1
		where e1.age < 22
		  and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)
		order by eno`)
	if err != nil {
		panic(err)
	}
	fmt.Print(res)
	// Output:
	// eno	sal
	// 1	100
	// 4	80
	// 5	90
}

// ExampleEngine_Explain compares the optimizer's estimated cost under the
// traditional baseline and the full (pull-up enabled) algorithm.
func ExampleEngine_Explain() {
	eng := aggview.Open(aggview.Config{PoolPages: 8})
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = 8000, 4000 // many departments
	if err := eng.LoadEmpDept(spec); err != nil {
		panic(err)
	}
	q := `select e1.sal from emp e1
	      where e1.age < 20
	        and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`

	trad, _ := eng.Explain(context.Background(), q, aggview.WithMode(aggview.Traditional))
	full, _ := eng.Explain(context.Background(), q, aggview.WithMode(aggview.Full))
	fmt.Printf("traditional vs full cheaper-or-equal: %v\n", full.EstimatedCost <= trad.EstimatedCost)
	fmt.Printf("full searched more plans: %v\n", full.Search.PlansConsidered > trad.Search.PlansConsidered)
	// Output:
	// traditional vs full cheaper-or-equal: true
	// full searched more plans: true
}

// ExampleRegisterAggregate defines a SECOND_LARGEST aggregate and uses it
// from SQL.
func ExampleRegisterAggregate() {
	if err := aggview.RegisterAggregate(aggview.UserAggSpec{
		Name:       "second_largest",
		ResultKind: aggview.KindFloat,
		New:        func() aggview.Accumulator { return &secondLargest{} },
	}); err != nil {
		panic(err)
	}
	eng := aggview.Open(aggview.Config{})
	eng.MustExec(`create table t (g int, v float)`)
	eng.MustExec(`insert into t values (1, 5), (1, 9), (1, 7), (2, 3), (2, 4)`)
	eng.MustExec(`analyze`)
	res, err := eng.Query(context.Background(), `select g, second_largest(v) from t group by g order by g`)
	if err != nil {
		panic(err)
	}
	fmt.Print(res)
	// Output:
	// g	second_largest
	// 1	7
	// 2	3
}

// secondLargest tracks the two largest values seen.
type secondLargest struct {
	n          int
	best, next float64
}

func (a *secondLargest) Add(v aggview.Value) {
	if v.IsNull() {
		return
	}
	f := v.Float()
	a.n++
	switch {
	case a.n == 1:
		a.best = f
	case f > a.best:
		a.next, a.best = a.best, f
	case a.n == 2 || f > a.next:
		a.next = f
	}
}

func (a *secondLargest) Result() aggview.Value {
	if a.n < 2 {
		return aggview.NullValue()
	}
	return aggview.FloatValue(a.next)
}
