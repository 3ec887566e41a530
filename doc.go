// Package aggview is a cost-based query optimizer and execution engine for
// queries with aggregate views, reproducing Chaudhuri & Shim, "Optimizing
// Queries with Aggregate Views" (EDBT 1996).
//
// The engine implements the paper end to end:
//
//   - the pull-up transformation (Definition 1), which defers a view's
//     group-by past joins so relations in different query blocks can be
//     reordered;
//   - the push-down transformations from [CS94] — invariant grouping and
//     simple coalescing grouping — and the minimal invariant set;
//   - the greedy conservative heuristic extension of System-R dynamic
//     programming (Section 5.2), and the one-view and multi-view two-phase
//     enumeration algorithms (Sections 5.3 and 5.4) with the paper's
//     practical search-space restrictions (k-level pull-up, predicate
//     sharing);
//   - Kim-style flattening of nested subqueries into joins with aggregate
//     views, making the optimizer applicable to correlated subqueries;
//   - the substrate all of this needs: a SQL front end, a paged storage
//     layer with a buffer pool and IO accounting, a statistics/cost model,
//     and a Volcano-style executor whose spill behaviour matches the cost
//     model's assumptions.
//
// The entry point is the Engine:
//
//	eng := aggview.Open(aggview.Config{})
//	eng.MustExec(`create table emp (eno int primary key, dno int, sal float, age int)`)
//	// … insert data, analyze …
//	res, err := eng.Query(ctx, `
//	    select e1.sal from emp e1
//	    where e1.age < 22
//	      and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`)
//
// Query is the single query surface; options tune one run without touching
// the engine configuration — WithMode picks the optimizer algorithm,
// WithParams binds `?` placeholders, WithLimits overrides the resource
// limits, WithColdCache drops the buffer pool first (the paper's
// measurement setting):
//
//	res, err := eng.Query(ctx, sql,
//	    aggview.WithMode(aggview.Traditional),
//	    aggview.WithLimits(aggview.Limits{MaxIOPages: 10_000}),
//	    aggview.WithColdCache())
//
// Explain takes the same options and returns the chosen plan without
// running it; ExplainAll compares the three optimizer modes (traditional,
// push-down, full) and their estimated costs. Every entry point — Query,
// QueryRows, Exec of a SELECT, Explain, ExplainAnalyze, prepared statements,
// Txn.Query — is the same staged pipeline run (parse, bind, resolve plan,
// execute, finish), so they agree on plans, page IO and metrics.
//
// # Materialized aggregate views
//
// CREATE MATERIALIZED VIEW stores a single-block aggregation's groups as
// partial aggregate states in a backing table. The optimizer answers later
// queries from the stored groups when the query's grouping is a rollup of
// the view's, every aggregate is derivable from the stored partials, and
// the view plan is strictly cheaper by the cost model; the decision is
// reported in PlanInfo.ViewRewrite and as a "view rewrite:" line in
// EXPLAIN. INSERT into a base table maintains dependent views in the same
// write (incrementally for single-table definitions, by refresh for
// joins), and WithoutViewRewrite disables the substitution for one run —
// the control setting for differential comparisons:
//
//	eng.MustExec(`create materialized view sales_rollup as
//	    select region, product, sum(amount) as total, count(*) as n
//	    from sales group by region, product`)
//	res, err := eng.Query(ctx,
//	    `select region, sum(amount) as total from sales group by region`)
//	// res.Plan.ViewRewrite == "sales_rollup" when the view plan won
//
// # Observability
//
// ExplainAnalyze (or the SQL form EXPLAIN ANALYZE) executes a SELECT cold
// and annotates every operator with the cost model's estimates next to the
// measured actuals — rows, self-attributed page IO, spill traffic, and wall
// time; summing the per-operator page counters reproduces the engine's
// IOStats delta exactly. Materializing queries attach the same data to the
// Result (Plan, IO, Ops); QueryRows streams results through a cursor
// instead of materializing, with governance applied as rows are pulled. Engine.Metrics returns the
// engine-wide cumulative rollup of every governed query, and
// Engine.SetMetricsSink installs a per-query export hook.
//
// # Governance
//
// Queries run under a per-query governor: context cancellation, Timeout,
// MaxRowsOut and MaxIOPages abort execution at page-IO granularity with
// typed sentinel errors (ErrCanceled, ErrRowLimit, ErrIOBudget). A tripped
// OptimizerBudget never fails the query — the engine degrades
// Full → PushDown → Traditional and reports the fallback in PlanInfo.
package aggview
