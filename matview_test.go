package aggview_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"aggview"
)

// Materialized-view tests: the cost-based rewrite's differential oracle
// (view-backed and base-table plans must return byte-identical rows),
// rewrite legality edge cases, incremental and full-refresh maintenance,
// plan-cache interaction, and durability.
//
// The warehouse fixture keeps measures exactly representable (integers and
// .5-grained floats), so SUM reassociation between the base plan and the
// partial-coalescing view plan cannot introduce rounding differences and
// the byte-identical comparison is sound.

func ctx() context.Context { return context.Background() }

// loadSalesWarehouse creates and populates the sales fact table: nRows rows
// over 3 regions, 8 products, 10 days; amount is k+0.5 grained, qty int.
func loadSalesWarehouse(t *testing.T, e *aggview.Engine, nRows int) {
	t.Helper()
	e.MustExec("CREATE TABLE sales (region TEXT, product TEXT, day INT, amount FLOAT, qty INT)")
	var b strings.Builder
	b.WriteString("INSERT INTO sales VALUES ")
	for i := 0; i < nRows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('r%d', 'p%d', %d, %d.5, %d)", i%3, i%8, i%10, i%100, i%7+1)
	}
	e.MustExec(b.String())
	e.MustExec("ANALYZE")
}

// sortedRows renders a result as sorted canonical strings for exact
// comparison across plans with different output orders.
func sortedRows(res *aggview.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = fmt.Sprintf("%v", v)
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const salesRollupDef = `CREATE MATERIALIZED VIEW sales_rollup AS
	SELECT region, product, SUM(amount) AS total, COUNT(*) AS n, AVG(qty) AS avgq, MAX(qty) AS maxq
	FROM sales GROUP BY region, product`

// TestMatViewDifferentialWarehouse is the acceptance differential: every
// query the rewrite can serve must return byte-identical rows view-backed
// and from base tables, EXPLAIN must carry the provenance, and at least one
// rollup query must do strictly less page IO through the view.
func TestMatViewDifferentialWarehouse(t *testing.T) {
	e := aggview.Open(aggview.Config{PoolPages: 16})
	loadSalesWarehouse(t, e, 20000)
	e.MustExec(salesRollupDef)

	eligible := []string{
		`SELECT region, product, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region, product`,
		`SELECT region, SUM(amount) AS total FROM sales GROUP BY region`,
		`SELECT product, AVG(qty) AS a, MAX(qty) AS m FROM sales GROUP BY product`,
		`SELECT region, COUNT(*) AS n FROM sales WHERE region = 'r1' GROUP BY region`,
		`SELECT region, SUM(amount) AS total FROM sales GROUP BY region HAVING SUM(amount) > 100.0`,
		`SELECT product, SUM(qty) AS sq FROM sales GROUP BY product`, // SUM(qty) from AVG's partial
	}
	ineligible := []string{
		`SELECT day, SUM(amount) AS total FROM sales GROUP BY day`,                 // day is not stored
		`SELECT region, SUM(amount) AS t FROM sales WHERE day < 5 GROUP BY region`, // filter over non-stored column
		`SELECT region, MIN(qty) AS mn FROM sales GROUP BY region`,                 // no MIN partial stored
		`SELECT SUM(amount) AS total FROM sales`,                                   // scalar aggregate: never rewritten
	}

	for i, q := range eligible {
		view, err := e.Query(ctx(), q)
		if err != nil {
			t.Fatalf("eligible %d: %v", i, err)
		}
		if view.Plan.ViewRewrite != "sales_rollup" {
			t.Fatalf("eligible %d: rewrite did not fire (ViewRewrite=%q)\n%s", i, view.Plan.ViewRewrite, view.Plan.PlanText)
		}
		base, err := e.Query(ctx(), q, aggview.WithoutViewRewrite())
		if err != nil {
			t.Fatalf("eligible %d (base): %v", i, err)
		}
		if base.Plan.ViewRewrite != "" {
			t.Fatalf("eligible %d: WithoutViewRewrite still rewrote", i)
		}
		if !equalRows(sortedRows(view), sortedRows(base)) {
			t.Fatalf("eligible %d: view-backed rows differ from base rows\nview: %v\nbase: %v",
				i, sortedRows(view), sortedRows(base))
		}
	}

	for i, q := range ineligible {
		view, err := e.Query(ctx(), q)
		if err != nil {
			t.Fatalf("ineligible %d: %v", i, err)
		}
		if view.Plan.ViewRewrite != "" {
			t.Fatalf("ineligible %d: rewrite fired illegally (%q)\n%s", i, view.Plan.ViewRewrite, view.Plan.PlanText)
		}
		base, err := e.Query(ctx(), q, aggview.WithoutViewRewrite())
		if err != nil {
			t.Fatalf("ineligible %d (base): %v", i, err)
		}
		if !equalRows(sortedRows(view), sortedRows(base)) {
			t.Fatalf("ineligible %d: rows differ between identical plans", i)
		}
	}

	// EXPLAIN provenance.
	ex := e.MustExec("EXPLAIN " + eligible[1])
	found := false
	for _, row := range ex.Rows {
		if row[0] == "view rewrite: sales_rollup" {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN missing view-rewrite provenance:\n%s", ex)
	}
	if ex.Plan.ViewRewrite != "sales_rollup" {
		t.Fatalf("EXPLAIN PlanInfo.ViewRewrite = %q", ex.Plan.ViewRewrite)
	}

	// Measured page IO: the view plan must read strictly fewer pages cold.
	rollup := eligible[1]
	view, err := e.Query(ctx(), rollup, aggview.WithColdCache())
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Query(ctx(), rollup, aggview.WithColdCache(), aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if view.IO.Reads >= base.IO.Reads {
		t.Fatalf("view plan read %d pages, base %d; want strictly fewer", view.IO.Reads, base.IO.Reads)
	}
}

// TestMatViewCreateRejections: definitions outside the materializable class
// fail at CREATE with a clear error, and DDL guards protect the dependency
// graph.
func TestMatViewCreateRejections(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	loadSalesWarehouse(t, e, 100)

	bad := []struct{ sql, wantSub string }{
		{`CREATE MATERIALIZED VIEW b1 AS SELECT SUM(amount) AS t FROM sales`, "GROUP BY"},
		{`CREATE MATERIALIZED VIEW b2 AS SELECT region FROM sales GROUP BY region`, "aggregate"},
		{`CREATE MATERIALIZED VIEW b3 AS SELECT region, SUM(amount) AS t FROM sales GROUP BY region HAVING SUM(amount) > 1.0`, "HAVING"},
		{`CREATE MATERIALIZED VIEW b4 AS SELECT region, SUM(amount) AS t FROM sales GROUP BY region ORDER BY t`, "ORDER BY"},
		{`CREATE MATERIALIZED VIEW b5 AS SELECT region, SUM(amount) AS t FROM sales GROUP BY region LIMIT 2`, "ORDER BY/LIMIT"},
		{`CREATE MATERIALIZED VIEW b6 AS SELECT region, MEDIAN(amount) AS m FROM sales GROUP BY region`, "not decomposable"},
		{`CREATE MATERIALIZED VIEW b7 AS SELECT region, SUM(amount) + 1.0 AS t FROM sales GROUP BY region`, "bare"},
	}
	for _, c := range bad {
		_, err := e.Exec(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("%s\n  err = %v, want substring %q", c.sql, err, c.wantSub)
		}
	}

	// Definitions over views are rejected (single block over base tables).
	e.MustExec(`CREATE VIEW v_tot (region, total) AS SELECT region, SUM(amount) FROM sales GROUP BY region`)
	if _, err := e.Exec(`CREATE MATERIALIZED VIEW b8 AS SELECT region, SUM(total) AS t FROM v_tot GROUP BY region`); err == nil {
		t.Fatal("matview over an aggregate view was accepted")
	}

	e.MustExec(`CREATE MATERIALIZED VIEW m AS SELECT region, SUM(amount) AS total FROM sales GROUP BY region`)
	if got := e.MatViews(); len(got) != 1 || got[0] != "m" {
		t.Fatalf("MatViews() = %v", got)
	}
	// Name collisions, both directions.
	if _, err := e.Exec(`CREATE MATERIALIZED VIEW m AS SELECT region, COUNT(*) AS n FROM sales GROUP BY region`); err == nil {
		t.Fatal("duplicate matview name accepted")
	}
	if _, err := e.Exec(`CREATE TABLE m (x INT)`); err == nil {
		t.Fatal("table shadowing a matview name accepted")
	}
	// Dependency guards: neither the base table nor the backing table can
	// be dropped while the view exists.
	if _, err := e.Exec(`DROP TABLE sales`); err == nil || !strings.Contains(err.Error(), "drop the view first") {
		t.Fatalf("DROP base table: %v", err)
	}
	if _, err := e.Exec(`DROP TABLE m$mv`); err == nil || !strings.Contains(err.Error(), "drop the view instead") {
		t.Fatalf("DROP backing table: %v", err)
	}
	// DROP MATERIALIZED VIEW releases everything.
	e.MustExec(`DROP MATERIALIZED VIEW m`)
	if got := e.MatViews(); len(got) != 0 {
		t.Fatalf("MatViews() after drop = %v", got)
	}
	if _, err := e.Exec(`SELECT * FROM m$mv`); err == nil {
		t.Fatal("backing table survived DROP MATERIALIZED VIEW")
	}
	e.MustExec(`DROP TABLE sales`) // guard gone with the view
}

// matviewRecomputeEqual asserts that reading a view's backing table (with
// explicit partial coalescing) agrees exactly with recomputing the
// definition from base tables — the maintenance correctness oracle. Both
// queries bypass the rewrite so each side's access path is forced.
func matviewRecomputeEqual(t *testing.T, e *aggview.Engine, coalesceSQL, recomputeSQL string) {
	t.Helper()
	viewSide, err := e.Query(ctx(), coalesceSQL, aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatalf("coalesce query: %v", err)
	}
	baseSide, err := e.Query(ctx(), recomputeSQL, aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatalf("recompute query: %v", err)
	}
	if !equalRows(sortedRows(viewSide), sortedRows(baseSide)) {
		t.Fatalf("backing table diverged from recompute\nbacking: %v\nrecompute: %v",
			sortedRows(viewSide), sortedRows(baseSide))
	}
}

// TestMatViewIncrementalMaintenance: single-table views fold INSERTs into
// delta partial rows; results stay exact through new groups, filtered rows,
// and empty deltas.
func TestMatViewIncrementalMaintenance(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	e.MustExec("CREATE TABLE sales (region TEXT, product TEXT, day INT, amount FLOAT, qty INT)")
	e.MustExec("INSERT INTO sales VALUES ('r0', 'p0', 1, 10.5, 2), ('r0', 'p1', 2, 20.5, 3), ('r1', 'p0', 3, 30.5, 4)")
	e.MustExec(`CREATE MATERIALIZED VIEW m AS
		SELECT region, SUM(amount) AS total, COUNT(*) AS n, AVG(qty) AS avgq
		FROM sales WHERE qty > 0 GROUP BY region`)

	coalesce := `SELECT region, SUM(total$sum) AS total, SUM(n$cnt) AS n, SUM(avgq$sum) / SUM(avgq$cnt) AS avgq FROM m$mv GROUP BY region`
	recompute := `SELECT region, SUM(amount) AS total, COUNT(*) AS n, AVG(qty) AS avgq FROM sales WHERE qty > 0 GROUP BY region`
	matviewRecomputeEqual(t, e, coalesce, recompute)

	// Existing group, new group, and a row the definition's filter drops.
	e.MustExec("INSERT INTO sales VALUES ('r0', 'p2', 4, 1.5, 1)")
	matviewRecomputeEqual(t, e, coalesce, recompute)
	e.MustExec("INSERT INTO sales VALUES ('r9', 'p0', 5, 2.5, 6)")
	matviewRecomputeEqual(t, e, coalesce, recompute)
	e.MustExec("INSERT INTO sales VALUES ('r0', 'p0', 6, 99.5, 0)") // qty > 0 filter drops it
	matviewRecomputeEqual(t, e, coalesce, recompute)

	// A fully filtered INSERT appends no delta rows at all.
	before, err := e.Query(ctx(), "SELECT COUNT(*) AS c FROM m$mv")
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec("INSERT INTO sales VALUES ('r5', 'p5', 7, 1.5, 0)")
	after, err := e.Query(ctx(), "SELECT COUNT(*) AS c FROM m$mv")
	if err != nil {
		t.Fatal(err)
	}
	if before.Rows[0][0] != after.Rows[0][0] {
		t.Fatalf("empty delta appended rows: %v -> %v", before.Rows[0][0], after.Rows[0][0])
	}
	matviewRecomputeEqual(t, e, coalesce, recompute)
}

// TestMatViewMaintenanceAfterRecreate: an engine keeps a view's bound
// definition, with its compiled maintenance programs, across commits. When
// the view and its base table are dropped and created again with the same
// text but another column order, behind that engine's back (through an
// engine derived by WithConfig, which keeps its own definitions), the next
// INSERT must not run the old programs.
func TestMatViewMaintenanceAfterRecreate(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	const view = `CREATE MATERIALIZED VIEW m AS
		SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales WHERE qty > 0 GROUP BY region`
	coalesce := `SELECT region, SUM(total$sum) AS total, SUM(n$cnt) AS n FROM m$mv GROUP BY region`
	recompute := `SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales WHERE qty > 0 GROUP BY region`
	e.MustExec("CREATE TABLE sales (region TEXT, amount FLOAT, qty INT)")
	e.MustExec(view)
	e.MustExec("INSERT INTO sales VALUES ('r0', 1.5, 1), ('r1', 2.5, 2)")
	matviewRecomputeEqual(t, e, coalesce, recompute)

	other := e.WithConfig(aggview.Config{})
	other.MustExec("DROP MATERIALIZED VIEW m")
	other.MustExec("DROP TABLE sales")
	other.MustExec("CREATE TABLE sales (qty INT, amount FLOAT, region TEXT)")
	other.MustExec(view)
	e.MustExec("INSERT INTO sales VALUES (1, 4.5, 'r0'), (0, 8.5, 'r2'), (3, 16.5, 'r2')")
	matviewRecomputeEqual(t, e, coalesce, recompute)
}

// TestMatViewFullRefreshMaintenance: a join-view definition cannot fold
// deltas locally, so INSERT into either base table triggers a full refresh.
func TestMatViewFullRefreshMaintenance(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	e.MustExec("CREATE TABLE sales (region TEXT, amount FLOAT, qty INT)")
	e.MustExec("CREATE TABLE regions (region TEXT, zone TEXT)")
	e.MustExec("INSERT INTO regions VALUES ('r0', 'west'), ('r1', 'west'), ('r2', 'east')")
	e.MustExec("INSERT INTO sales VALUES ('r0', 10.5, 1), ('r1', 20.5, 2), ('r2', 30.5, 3)")
	e.MustExec(`CREATE MATERIALIZED VIEW zm AS
		SELECT r.zone, SUM(s.amount) AS total, COUNT(*) AS n
		FROM sales s, regions r WHERE s.region = r.region GROUP BY r.zone`)

	coalesce := `SELECT zone, SUM(total$sum) AS total, SUM(n$cnt) AS n FROM zm$mv GROUP BY zone`
	recompute := `SELECT r.zone, SUM(s.amount) AS total, COUNT(*) AS n FROM sales s, regions r WHERE s.region = r.region GROUP BY r.zone`
	matviewRecomputeEqual(t, e, coalesce, recompute)

	// Fact-side insert refreshes.
	e.MustExec("INSERT INTO sales VALUES ('r2', 5.5, 4), ('r0', 1.5, 5)")
	matviewRecomputeEqual(t, e, coalesce, recompute)
	// Dimension-side insert refreshes too (a new join partner changes
	// existing groups).
	e.MustExec("INSERT INTO regions VALUES ('r3', 'east')")
	e.MustExec("INSERT INTO sales VALUES ('r3', 7.5, 6)")
	matviewRecomputeEqual(t, e, coalesce, recompute)
}

// TestMatViewEmptyGroupSafety: views over empty tables materialize zero
// groups; scalar-aggregate queries are never rewritten (they would face the
// empty-input COUNT hazard), and grouped queries agree on emptiness.
func TestMatViewEmptyGroupSafety(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	e.MustExec("CREATE TABLE sales (region TEXT, amount FLOAT)")
	e.MustExec(`CREATE MATERIALIZED VIEW m AS SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region`)

	// Scalar aggregates: COUNT over an empty table is 0 base-side; a view
	// rewrite would coalesce zero partial rows into NULL. The rewrite must
	// refuse.
	res, err := e.Query(ctx(), "SELECT COUNT(*) AS c FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.ViewRewrite != "" {
		t.Fatal("scalar aggregate was rewritten")
	}
	if res.Len() != 1 || res.Rows[0][0] != int64(0) {
		t.Fatalf("COUNT over empty table = %v", res.Rows)
	}

	// Grouped queries: zero groups on both paths.
	grouped := "SELECT region, COUNT(*) AS n FROM sales GROUP BY region"
	gv, err := e.Query(ctx(), grouped)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := e.Query(ctx(), grouped, aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if gv.Len() != 0 || gb.Len() != 0 {
		t.Fatalf("grouped query over empty table: view %d rows, base %d", gv.Len(), gb.Len())
	}

	// Groups appear identically once rows exist.
	e.MustExec("INSERT INTO sales VALUES ('r0', 1.5), ('r1', 2.5)")
	matviewRecomputeEqual(t, e,
		"SELECT region, SUM(total$sum) AS total, SUM(n$cnt) AS n FROM m$mv GROUP BY region",
		"SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region")
}

// TestMatViewFromByName: referencing the view by name in FROM binds through
// its definition (recompute semantics) and agrees with the definition run
// directly.
func TestMatViewFromByName(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	loadSalesWarehouse(t, e, 500)
	e.MustExec(`CREATE MATERIALIZED VIEW m AS SELECT region, SUM(amount) AS total FROM sales GROUP BY region`)

	byName, err := e.Query(ctx(), "SELECT region, total FROM m")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.Query(ctx(), "SELECT region, SUM(amount) AS total FROM sales GROUP BY region", aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(sortedRows(byName), sortedRows(direct)) {
		t.Fatalf("FROM matview diverged:\n%v\n%v", sortedRows(byName), sortedRows(direct))
	}
}

// TestMatViewPlanCacheInvalidation: creating or dropping a view bumps the
// catalog version, so cached plans recompile and flip between base and
// view-backed access paths; WithoutViewRewrite compiles under its own cache
// key and never sees a rewritten plan.
func TestMatViewPlanCacheInvalidation(t *testing.T) {
	e := aggview.Open(aggview.Config{PoolPages: 16})
	loadSalesWarehouse(t, e, 20000)
	q := "SELECT region, SUM(amount) AS total FROM sales GROUP BY region"

	r1, err := e.Query(ctx(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Query(ctx(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Plan.CacheStatus != "hit" || r2.Plan.ViewRewrite != "" {
		t.Fatalf("warm run: cache=%s rewrite=%q", r2.Plan.CacheStatus, r2.Plan.ViewRewrite)
	}
	_ = r1

	e.MustExec(salesRollupDef)
	r3, err := e.Query(ctx(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Plan.CacheStatus != "invalidated" {
		t.Fatalf("post-CREATE cache status = %s", r3.Plan.CacheStatus)
	}
	if r3.Plan.ViewRewrite != "sales_rollup" {
		t.Fatalf("post-CREATE rewrite = %q", r3.Plan.ViewRewrite)
	}
	r4, err := e.Query(ctx(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Plan.CacheStatus != "hit" || r4.Plan.ViewRewrite != "sales_rollup" {
		t.Fatalf("warm rewritten run: cache=%s rewrite=%q", r4.Plan.CacheStatus, r4.Plan.ViewRewrite)
	}

	// The control setting compiles separately and stays on base tables.
	rc, err := e.Query(ctx(), q, aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if rc.Plan.ViewRewrite != "" {
		t.Fatal("WithoutViewRewrite served a rewritten plan")
	}

	// A prepared statement revalidates by version on every execution.
	stmt, err := e.Prepare("SELECT product, COUNT(*) AS n FROM sales GROUP BY product")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := stmt.QueryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p1.Plan.ViewRewrite != "sales_rollup" {
		t.Fatalf("prepared statement missed the rewrite: %q", p1.Plan.ViewRewrite)
	}

	e.MustExec("DROP MATERIALIZED VIEW sales_rollup")
	r5, err := e.Query(ctx(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Plan.CacheStatus != "invalidated" || r5.Plan.ViewRewrite != "" {
		t.Fatalf("post-DROP: cache=%s rewrite=%q", r5.Plan.CacheStatus, r5.Plan.ViewRewrite)
	}
	p2, err := stmt.QueryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Plan.ViewRewrite != "" {
		t.Fatal("prepared statement kept a dropped view's plan")
	}
}

// TestMatViewDurability: materialized views round-trip through close/reopen
// and checkpoints with a stable state fingerprint (recovery is replay only;
// it must not mutate state), and the rewrite still fires on the recovered
// engine.
func TestMatViewDurability(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	loadSalesWarehouse(t, e, 20000)
	e.MustExec(salesRollupDef)
	e.MustExec("INSERT INTO sales VALUES ('r0', 'p0', 1, 7.5, 3)") // incremental delta
	fp := e.StateFingerprint()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	if got := re.StateFingerprint(); got != fp {
		t.Fatal("recovered state fingerprint diverged")
	}
	if got := re.MatViews(); len(got) != 1 || got[0] != "sales_rollup" {
		t.Fatalf("recovered MatViews() = %v", got)
	}
	res, err := re.Query(ctx(), "SELECT region, SUM(amount) AS total FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.ViewRewrite != "sales_rollup" {
		t.Fatalf("rewrite after recovery: %q\n%s", res.Plan.ViewRewrite, res.Plan.PlanText)
	}
	base, err := re.Query(ctx(), "SELECT region, SUM(amount) AS total FROM sales GROUP BY region", aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(sortedRows(res), sortedRows(base)) {
		t.Fatal("recovered view answers diverged from base")
	}

	// Checkpoint, mutate, reopen: same invariants through the snapshot path.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re.MustExec("INSERT INTO sales VALUES ('r1', 'p1', 2, 8.5, 4)")
	fp2 := re.StateFingerprint()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openDurable(t, dir)
	defer re2.Close()
	if re2.StateFingerprint() != fp2 {
		t.Fatal("post-checkpoint recovery diverged")
	}
	matviewRecomputeEqual(t, re2,
		"SELECT region, SUM(total$sum) AS t FROM sales_rollup$mv GROUP BY region",
		"SELECT region, SUM(amount) AS t FROM sales GROUP BY region")
}

// TestCrashSweepMatViews crashes a matview workload at every physical log
// write (clean and torn). Materialized-view statements append several
// records each, so a crash can land mid-statement; the recovery oracle is
// therefore consistency, not prefix equality: after every recovery, each
// surviving view's backing table must coalesce to exactly the definition's
// recompute, orphaned backing tables must be gone (names reusable), and
// the engine must accept new view DDL.
func TestCrashSweepMatViews(t *testing.T) {
	steps := []crashStep{
		execStep(`create table sales (region text, product text, qty int)`),
		execStep(`insert into sales values ('r0','p0',1), ('r0','p1',2), ('r1','p0',3), ('r1','p1',4), ('r2','p0',5)`),
		execStep(`create materialized view m1 as select region, sum(qty) as sq, count(*) as n from sales where qty > 0 group by region`),
		execStep(`insert into sales values ('r0','p2',6), ('r3','p0',7), ('r1','p0',0)`),
		// Single-group inserts: the first doubles m1$mv (3 rows loaded, 6 held)
		// and merges it to 4 groups, the fifth doubles it again. Each merging
		// INSERT logs base row, delta row and the reload as one group.
		execStep(`insert into sales values ('r0','p3',1)`),
		execStep(`insert into sales values ('r0','p3',2)`),
		execStep(`insert into sales values ('r0','p3',3)`),
		execStep(`insert into sales values ('r0','p3',4)`),
		execStep(`insert into sales values ('r0','p3',5)`),
		execStep(`create table regions (region text, zone text)`),
		execStep(`insert into regions values ('r0','west'), ('r1','west'), ('r2','east'), ('r3','east')`),
		execStep(`create materialized view m2 as select r.zone, sum(s.qty) as sq from sales s, regions r where s.region = r.region group by r.zone`),
		execStep(`insert into sales values ('r2','p1',8)`), // incremental m1 + full refresh m2
		execStep(`drop materialized view m1`),
		execStep(`insert into sales values ('r3','p1',9)`),
	}
	oracles := map[string][2]string{
		"m1": {
			`select region, sum(sq$sum) as sq, sum(n$cnt) as n from m1$mv group by region`,
			`select region, sum(qty) as sq, count(*) as n from sales where qty > 0 group by region`,
		},
		"m2": {
			`select zone, sum(sq$sum) as sq from m2$mv group by zone`,
			`select r.zone, sum(s.qty) as sq from sales s, regions r where s.region = r.region group by r.zone`,
		},
	}

	// Clean run sizes the sweep.
	cleanDir := t.TempDir()
	clean := openDurable(t, cleanDir)
	clean.InjectWALCrash(nil)
	for _, s := range steps {
		if err := s.run(clean); err != nil {
			t.Fatalf("clean %q: %v", s.name, err)
		}
	}
	writes := clean.WALWrites()
	merges := clean.Metrics().MatViewMerges
	clean.Close()
	if writes <= int64(len(steps)) {
		t.Fatalf("expected multi-record statements (writes=%d steps=%d)", writes, len(steps))
	}
	if merges < 2 {
		t.Fatalf("MatViewMerges = %d; the sweep must cross merging commits", merges)
	}

	stride := int64(1)
	if testing.Short() {
		stride = writes/8 + 1
	}
	for _, torn := range []bool{false, true} {
		for n := int64(0); n < writes; n += stride {
			dir := t.TempDir()
			eng := openDurable(t, dir)
			eng.InjectWALCrash(&aggview.CrashPlan{CrashAfterNWrites: n, Torn: torn})
			var crashErr error
			for _, s := range steps {
				if err := s.run(eng); err != nil {
					crashErr = err
					break
				}
			}
			if crashErr == nil {
				t.Fatalf("n=%d torn=%v: workload survived", n, torn)
			}
			eng.Close()

			rec := openDurable(t, dir)
			if w := rec.WALWrites(); w != 0 {
				t.Fatalf("n=%d torn=%v: recovery appended %d records; replay alone must restore a consistent view", n, torn, w)
			}
			for _, name := range rec.MatViews() {
				o, ok := oracles[name]
				if !ok {
					t.Fatalf("n=%d torn=%v: unexpected view %q", n, torn, name)
				}
				viewSide, err := rec.Query(ctx(), o[0], aggview.WithoutViewRewrite())
				if err != nil {
					t.Fatalf("n=%d torn=%v: %s: %v", n, torn, name, err)
				}
				baseSide, err := rec.Query(ctx(), o[1], aggview.WithoutViewRewrite())
				if err != nil {
					t.Fatalf("n=%d torn=%v: %s: %v", n, torn, name, err)
				}
				if !equalRows(sortedRows(viewSide), sortedRows(baseSide)) {
					t.Fatalf("n=%d torn=%v: recovered view %q inconsistent\nbacking: %v\nrecompute: %v",
						n, torn, name, sortedRows(viewSide), sortedRows(baseSide))
				}
			}
			// All-or-nothing replay leaves no half-created names: creating a fresh
			// view (and re-creating m1's name when it is absent) must work.
			if _, err := rec.Exec(`create table probe_t (x int)`); err != nil {
				t.Fatalf("n=%d torn=%v: recovered engine rejects DDL: %v", n, torn, err)
			}
			if _, err := rec.Exec(`insert into probe_t values (1), (2)`); err != nil {
				t.Fatalf("n=%d torn=%v: %v", n, torn, err)
			}
			if _, err := rec.Exec(`create materialized view probe_mv as select x, count(*) as n from probe_t group by x`); err != nil {
				t.Fatalf("n=%d torn=%v: recovered engine rejects matview DDL: %v", n, torn, err)
			}
			hasM1 := false
			for _, name := range rec.MatViews() {
				if name == "m1" {
					hasM1 = true
				}
			}
			if !hasM1 {
				if _, has := tableSet(rec)["sales"]; has {
					if _, err := rec.Exec(`create materialized view m1 as select region, sum(qty) as sq, count(*) as n from sales where qty > 0 group by region`); err != nil {
						t.Fatalf("n=%d torn=%v: m1 name not reusable after crash: %v", n, torn, err)
					}
				}
			}
			rec.Close()
		}
	}
}

// TestMatViewNullGroups: NULL group keys and all-NULL aggregate inputs
// flow through materialization and incremental maintenance. The NULL
// region rows form their own group (grouping treats NULLs as equal, unlike
// comparisons); a group whose amounts are all NULL stores a NULL SUM
// partial, which must coalesce to NULL — never to 0 — on both the
// backing-table and recompute sides.
func TestMatViewNullGroups(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	e.MustExec("CREATE TABLE sales (region TEXT, amount FLOAT, qty INT)")
	e.MustExec(`INSERT INTO sales VALUES
		('r0', 10.5, 1), ('r0', NULL, 2), (NULL, 5.5, 3), (NULL, NULL, 4),
		('r1', NULL, NULL), ('r1', NULL, NULL)`) // r1: every aggregate input NULL
	e.MustExec(`CREATE MATERIALIZED VIEW m AS
		SELECT region, SUM(amount) AS total, COUNT(*) AS n, COUNT(amount) AS ca, AVG(qty) AS aq
		FROM sales GROUP BY region`)

	coalesce := `SELECT region, SUM(total$sum) AS total, SUM(n$cnt) AS n, SUM(ca$cnt) AS ca,
		SUM(aq$sum) / SUM(aq$cnt) AS aq FROM m$mv GROUP BY region`
	recompute := `SELECT region, SUM(amount) AS total, COUNT(*) AS n, COUNT(amount) AS ca, AVG(qty) AS aq
		FROM sales GROUP BY region`
	matviewRecomputeEqual(t, e, coalesce, recompute)

	// The backing table must hold exactly three groups — r0, r1, and the
	// NULL key — with COUNT partials counting rows, not non-NULL amounts.
	rows, err := e.Query(ctx(), `SELECT region, total$sum AS ts, n$cnt AS n FROM m$mv`, aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("backing table groups = %d, want 3: %v", rows.Len(), sortedRows(rows))
	}
	for _, r := range rows.Rows {
		if r[0] == "r1" && r[1] != nil {
			t.Fatalf("all-NULL group stored SUM partial %v, want NULL", r[1])
		}
	}

	// Incremental maintenance across NULL shapes: growing the NULL-key
	// group, reviving the all-NULL group with a real value, and a brand-new
	// group arriving all-NULL.
	e.MustExec("INSERT INTO sales VALUES (NULL, 2.5, 1)")
	matviewRecomputeEqual(t, e, coalesce, recompute)
	e.MustExec("INSERT INTO sales VALUES ('r1', 100.5, 7)")
	matviewRecomputeEqual(t, e, coalesce, recompute)
	e.MustExec("INSERT INTO sales VALUES ('r2', NULL, NULL), ('r2', NULL, 2)")
	matviewRecomputeEqual(t, e, coalesce, recompute)
}

// TestMatViewNullGroupsDurability runs the NULL-group fixture through the
// durable path: NULL partials and NULL group keys must survive log replay
// with a stable fingerprint, and the recovered view must still agree with a
// recompute.
func TestMatViewNullGroupsDurability(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	e.MustExec("CREATE TABLE sales (region TEXT, amount FLOAT, qty INT)")
	e.MustExec(`INSERT INTO sales VALUES
		('r0', 10.5, 1), (NULL, 5.5, 3), (NULL, NULL, 4), ('r1', NULL, NULL)`)
	e.MustExec(`CREATE MATERIALIZED VIEW m AS
		SELECT region, SUM(amount) AS total, COUNT(*) AS n, AVG(qty) AS aq
		FROM sales GROUP BY region`)
	e.MustExec("INSERT INTO sales VALUES (NULL, NULL, 9), ('r1', NULL, NULL)") // NULL-heavy delta
	fp := e.StateFingerprint()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	if got := re.StateFingerprint(); got != fp {
		t.Fatal("recovery refreshed a consistent NULL-group view (fingerprint diverged)")
	}
	matviewRecomputeEqual(t, re,
		`SELECT region, SUM(total$sum) AS total, SUM(n$cnt) AS n, SUM(aq$sum) / SUM(aq$cnt) AS aq FROM m$mv GROUP BY region`,
		`SELECT region, SUM(amount) AS total, COUNT(*) AS n, AVG(qty) AS aq FROM sales GROUP BY region`)
}

func tableSet(e *aggview.Engine) map[string]bool {
	out := map[string]bool{}
	for _, n := range e.Tables() {
		out[n] = true
	}
	return out
}
