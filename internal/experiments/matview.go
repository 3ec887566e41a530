package experiments

import (
	"context"
	"fmt"
	"strings"

	"aggview"
)

func init() {
	register("M1", "Materialized-view rewrite (extension): cold page reads view-backed vs base", runM1)
}

// matViewEngine builds M1's engine: a sales fact table (3 regions × 24
// products × 30 days) and a materialized rollup grouped by (region,
// product). Amounts are .5-grained so partial-coalescing sums are exact.
func matViewEngine(rows int) (*aggview.Engine, error) {
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	if _, err := eng.Exec(`create table sales (region text, product text, day int, amount float, qty int)`); err != nil {
		return nil, err
	}
	const batch = 2000
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		var b strings.Builder
		b.WriteString("insert into sales values ")
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "('r%d', 'p%d', %d, %d.5, %d)", i%3, i%24, i%30, i%100, i%7+1)
		}
		if _, err := eng.Exec(b.String()); err != nil {
			return nil, err
		}
	}
	if _, err := eng.Exec(`analyze`); err != nil {
		return nil, err
	}
	if _, err := eng.Exec(`create materialized view sales_rollup as
		select region, product, sum(amount) as total, count(*) as n, avg(qty) as avgq
		from sales group by region, product`); err != nil {
		return nil, err
	}
	return eng, nil
}

// runM1 runs each rollup query twice, cold, on one engine: view-backed (the
// optimizer's cost-based rewrite reads the view's partial rows) and base
// (WithoutViewRewrite forces the fact-table plan). The page reads are the IO
// the rewrite saves; what it saves in time is the rollup-hot workload of
// bench/.
func runM1(quick bool) (*Table, error) {
	rows := 40000
	if quick {
		rows = 8000
	}
	eng, err := matViewEngine(rows)
	if err != nil {
		return nil, err
	}

	queries := []struct{ name, sql string }{
		{"rollup-exact", `select region, product, sum(amount) as total, count(*) as n
			from sales group by region, product`},
		{"rollup-region", `select region, sum(amount) as total, avg(qty) as avgq
			from sales group by region`},
		{"rollup-filtered", `select product, count(*) as n
			from sales where region = 'r1' group by product`},
		{"base-only-day", `select day, sum(amount) as total
			from sales group by day`}, // day is not stored: rewrite refused, both paths identical
	}

	t := &Table{
		ID:     "M1",
		Title:  "Materialized rollup (region, product) over a sales fact table: cold page reads, view-backed vs WithoutViewRewrite",
		Header: []string{"query", "rewrite", "view reads", "base reads"},
	}
	ctx := context.Background()
	for _, q := range queries {
		view, err := eng.Query(ctx, q.sql, aggview.WithColdCache())
		if err != nil {
			return nil, fmt.Errorf("M1 %s: %w", q.name, err)
		}
		base, err := eng.Query(ctx, q.sql, aggview.WithColdCache(), aggview.WithoutViewRewrite())
		if err != nil {
			return nil, fmt.Errorf("M1 %s (base): %w", q.name, err)
		}
		rewrite := view.Plan.ViewRewrite
		if rewrite == "" {
			rewrite = "(no rewrite)"
		}
		t.Rows = append(t.Rows, []string{q.name, rewrite,
			itoa(int(view.IO.Reads)), itoa(int(base.IO.Reads))})
	}
	t.Notes = append(t.Notes, "a query the view cannot answer (base-only-day) reads the same pages on both paths")
	return t, nil
}
