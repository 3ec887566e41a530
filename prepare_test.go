package aggview

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestPrepareBasic: a prepared statement returns the same answer as the
// literal query, Prepare warms the cache (the first execution is already a
// hit), and a hit reports zero optimizer search — the plan was reused, not
// re-enumerated.
func TestPrepareBasic(t *testing.T) {
	e := setupEmpDept(t)
	stmt, err := e.Prepare(`select eno, sal from emp where age < ? order by eno`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}
	if !strings.Contains(stmt.Text(), "age < ?") {
		t.Fatalf("Text() lost the placeholder: %q", stmt.Text())
	}

	want, err := e.Query(context.Background(), `select eno, sal from emp where age < 30 order by eno`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stmt.QueryContext(context.Background(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Len() == 0 {
		t.Fatalf("prepared rows = %d, literal rows = %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		if got.Rows[i][0] != want.Rows[i][0] || got.Rows[i][1] != want.Rows[i][1] {
			t.Fatalf("row %d: %v vs %v", i, got.Rows[i], want.Rows[i])
		}
	}

	// Prepare compiled eagerly, so even the first run reuses the plan.
	if got.Plan.CacheStatus != "hit" {
		t.Fatalf("first run CacheStatus = %q, want hit", got.Plan.CacheStatus)
	}
	if got.Plan.Search != (SearchStats{}) {
		t.Fatalf("cache hit reported optimizer search %+v, want zero", got.Plan.Search)
	}

	// Different parameter values reuse the same plan.
	got2, err := stmt.QueryContext(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Plan.CacheStatus != "hit" {
		t.Fatalf("second run CacheStatus = %q, want hit", got2.Plan.CacheStatus)
	}
	if got2.Len() <= got.Len() {
		t.Fatalf("age<50 rows (%d) should exceed age<30 rows (%d)", got2.Len(), got.Len())
	}
	// Two entries: the prepared statement's plan, plus the ad-hoc literal
	// query above (ad-hoc statements share the plan cache).
	if e.PlanCacheLen() != 2 {
		t.Fatalf("PlanCacheLen = %d, want 2", e.PlanCacheLen())
	}
}

// TestPrepareNormalization: renderings of the same statement share one
// cache entry — the key is the statement's token stream, not the raw source
// — whichever door they come through: a third rendering sent ad hoc hits
// the plan Prepare compiled.
func TestPrepareNormalization(t *testing.T) {
	e := setupEmpDept(t)
	if _, err := e.Prepare(`select sal from emp where age < ?`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare("SELECT  sal\nFROM emp\nWHERE age < ?"); err != nil {
		t.Fatal(err)
	}
	if e.PlanCacheLen() != 1 {
		t.Fatalf("PlanCacheLen = %d, want 1 (normalization failed)", e.PlanCacheLen())
	}
	res, err := e.Query(context.Background(), "SELECT Sal FROM Emp\n\tWHERE age<? -- the young ones", WithParams(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.CacheStatus != "hit" || e.PlanCacheLen() != 1 || res.Len() == 0 {
		t.Fatalf("ad-hoc rendering: status %q, PlanCacheLen %d, %d rows; want hit, 1, some",
			res.Plan.CacheStatus, e.PlanCacheLen(), res.Len())
	}
}

// TestPrepareParamsInAggregateAndHaving: placeholders inside an aggregate
// argument and a HAVING predicate flow through binding, optimization and
// the group-by executor.
func TestPrepareParamsInAggregateAndHaving(t *testing.T) {
	e := setupEmpDept(t)
	stmt, err := e.Prepare(`
		select dno, sum(sal * ?) as s from emp
		group by dno having avg(sal) > ? order by dno`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", stmt.NumParams())
	}
	got, err := stmt.QueryContext(context.Background(), 2.0, 1500.0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(context.Background(), `
		select dno, sum(sal * 2.0) as s from emp
		group by dno having avg(sal) > 1500.0 order by dno`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Len() == 0 {
		t.Fatalf("prepared rows = %d, literal rows = %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		if got.Rows[i][1] != want.Rows[i][1] {
			t.Fatalf("row %d: sum %v vs %v", i, got.Rows[i][1], want.Rows[i][1])
		}
	}
	// Changing the HAVING threshold changes the surviving groups without a
	// recompile.
	all, err := stmt.QueryContext(context.Background(), 2.0, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if all.Plan.CacheStatus != "hit" || all.Len() != 8 {
		t.Fatalf("threshold 0: status %q, %d groups (want hit, 8)", all.Plan.CacheStatus, all.Len())
	}
}

// TestPrepareParamPlacementErrors: positions where a placeholder cannot
// appear fail at Prepare, not at execution.
func TestPrepareParamPlacementErrors(t *testing.T) {
	e := setupEmpDept(t)
	for _, q := range []string{
		`select dno, count(*) from emp group by ?`,
		`select sal from emp order by ?`,
	} {
		if _, err := e.Prepare(q); err == nil {
			t.Errorf("Prepare(%q) accepted a structural placeholder", q)
		}
	}
	if _, err := e.Prepare(`create table t (a int)`); err == nil ||
		!strings.Contains(err.Error(), "requires a SELECT") {
		t.Errorf("Prepare(DDL) error = %v", err)
	}
}

// TestPrepareArgumentErrors: arity and type mismatches are reported with
// the slot position; ints coerce into float slots; ad-hoc entry points
// reject statements that still contain placeholders.
func TestPrepareArgumentErrors(t *testing.T) {
	e := setupEmpDept(t)
	stmt, err := e.Prepare(`select eno from emp where age < ? and sal > ?`)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := stmt.QueryContext(context.Background(), 30); err == nil ||
		!strings.Contains(err.Error(), "2 parameter placeholder(s), got 1") {
		t.Errorf("arity error = %v", err)
	}
	if _, err := stmt.QueryContext(context.Background(), 30, 1000.0, 5); err == nil ||
		!strings.Contains(err.Error(), "2 parameter placeholder(s), got 3") {
		t.Errorf("arity error = %v", err)
	}
	// age is INT: a string cannot fill the slot.
	if _, err := stmt.QueryContext(context.Background(), "young", 1000.0); err == nil ||
		!strings.Contains(err.Error(), "parameter ?1: expected INT, got VARCHAR") {
		t.Errorf("type error = %v", err)
	}
	// sal is FLOAT: an int argument coerces.
	res, err := stmt.QueryContext(context.Background(), 30, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("coerced query returned nothing")
	}
	if _, err := stmt.QueryContext(context.Background(), 30, struct{}{}); err == nil ||
		!strings.Contains(err.Error(), "unsupported argument type") {
		t.Errorf("unsupported-type error = %v", err)
	}

	// A statement with no placeholders rejects surplus arguments.
	plain, err := e.Prepare(`select count(*) from emp`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.QueryContext(context.Background(), 1); err == nil ||
		!strings.Contains(err.Error(), "takes no parameters, got 1") {
		t.Errorf("no-params error = %v", err)
	}

	// Ad-hoc execution never supplies values, so a placeholder is an error.
	if _, err := e.Query(context.Background(), `select eno from emp where age < ?`); err == nil ||
		!strings.Contains(err.Error(), "1 parameter placeholder(s), got 0") {
		t.Errorf("ad-hoc placeholder error = %v", err)
	}
}

// TestPlanCachePerMode: one text run under two optimizer modes holds two
// independent entries on one engine, each hit under its own mode, and both
// return the same answer. A statement prepared on a WithConfig derivative
// compiles under that engine's mode.
func TestPlanCachePerMode(t *testing.T) {
	e := setupEmpDept(t)
	ctx := context.Background()
	q := `select e.dno as dno, avg(e.sal) from emp e, dept d
	      where e.dno = d.dno group by e.dno order by dno`
	for _, m := range []OptimizerMode{Traditional, Full} {
		if _, err := e.Query(ctx, q, WithMode(m)); err != nil {
			t.Fatal(err)
		}
	}
	if e.PlanCacheLen() != 2 {
		t.Fatalf("PlanCacheLen = %d, want 2 (one per mode)", e.PlanCacheLen())
	}
	rt, err := e.Query(ctx, q, WithMode(Traditional))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := e.Query(ctx, q, WithMode(Full))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Plan.CacheStatus != "hit" || rf.Plan.CacheStatus != "hit" {
		t.Fatalf("statuses %q/%q, want hit/hit", rt.Plan.CacheStatus, rf.Plan.CacheStatus)
	}
	if rt.Plan.Mode != Traditional || rf.Plan.Mode != Full {
		t.Fatalf("cached plans crossed modes: %v/%v", rt.Plan.Mode, rf.Plan.Mode)
	}
	if rt.String() != rf.String() {
		t.Fatalf("modes disagree:\n%s\nvs\n%s", rt, rf)
	}

	stmt, err := e.WithConfig(Config{Mode: Traditional}).Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := stmt.QueryContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Plan.CacheStatus != "hit" || rs.Plan.Mode != Traditional {
		t.Fatalf("prepared on a Traditional engine: status %q, mode %v", rs.Plan.CacheStatus, rs.Plan.Mode)
	}
}

// TestPlanCacheInvalidation is the invalidation regression test: every
// catalog-version bump (INSERT, DDL, ANALYZE) makes the next execution of
// a previously cached statement recompile — status "invalidated" — after
// which the fresh plan is cached again. A stale plan must never run: the
// INSERT case checks the recompiled plan sees the new row.
func TestPlanCacheInvalidation(t *testing.T) {
	e := setupEmpDept(t)
	stmt, err := e.Prepare(`select count(*) as n from emp where age < ?`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int64, string) {
		t.Helper()
		res, err := stmt.QueryContext(context.Background(), 200)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64), res.Plan.CacheStatus
	}

	n0, st := run()
	if st != "hit" {
		t.Fatalf("warm status = %q, want hit", st)
	}
	m0 := e.Metrics()

	// INSERT bumps the catalog version; the next run recompiles and must
	// observe the new row.
	e.MustExec(`insert into emp values (9999, 0, 1234.0, 30)`)
	n1, st := run()
	if st != "invalidated" {
		t.Fatalf("post-INSERT status = %q, want invalidated", st)
	}
	if n1 != n0+1 {
		t.Fatalf("post-INSERT count = %d, want %d (stale plan ran?)", n1, n0+1)
	}
	if _, st = run(); st != "hit" {
		t.Fatalf("recompiled plan not re-cached: status %q", st)
	}

	// DDL (an unrelated table!) also bumps the version: correctness over
	// precision — the cache invalidates pessimistically.
	e.MustExec(`create table scratch (x int)`)
	if _, st = run(); st != "invalidated" {
		t.Fatalf("post-DDL status = %q, want invalidated", st)
	}

	// ANALYZE refreshes statistics, so cached plans must re-optimize.
	e.MustExec(`analyze`)
	if _, st = run(); st != "invalidated" {
		t.Fatalf("post-ANALYZE status = %q, want invalidated", st)
	}
	if _, st = run(); st != "hit" {
		t.Fatalf("cache did not settle after bumps: status %q", st)
	}

	md := e.Metrics().Sub(m0)
	if md.PlanCacheInvalidations != 3 {
		t.Errorf("PlanCacheInvalidations = %d, want 3", md.PlanCacheInvalidations)
	}
	if md.PlanCacheMisses != 3 {
		t.Errorf("PlanCacheMisses = %d, want 3 (invalidations count as misses)", md.PlanCacheMisses)
	}
	if md.PlanCacheHits != 2 {
		t.Errorf("PlanCacheHits = %d, want 2", md.PlanCacheHits)
	}
}

// TestPlanCacheAdHocMissThenHit: ad-hoc queries share the plan cache — the
// first run compiles and caches (miss), the second reuses the plan (hit).
func TestPlanCacheAdHocMissThenHit(t *testing.T) {
	e := setupEmpDept(t)
	r1, err := e.Query(context.Background(), `select count(*) from emp`)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Plan.CacheStatus != "miss" {
		t.Fatalf("first ad-hoc CacheStatus = %q, want miss", r1.Plan.CacheStatus)
	}
	if e.PlanCacheLen() != 1 {
		t.Fatalf("ad-hoc query did not populate the plan cache (len %d)", e.PlanCacheLen())
	}
	r2, err := e.Query(context.Background(), `select count(*) from emp`)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Plan.CacheStatus != "hit" {
		t.Fatalf("second ad-hoc CacheStatus = %q, want hit", r2.Plan.CacheStatus)
	}
}

// TestPlanCacheEviction: the cache holds planCacheSize plans, evicts the
// least recently used one past that, and records the eviction in the
// metrics registry; the evicted statement recompiles on its next run.
func TestPlanCacheEviction(t *testing.T) {
	e := Open(Config{})
	e.MustExec(`create table t (a int)`)
	e.MustExec(`insert into t values (1), (2), (3)`)
	m0 := e.Metrics()
	stmts := make([]*Stmt, planCacheSize+1)
	for i := range stmts {
		var err error
		if stmts[i], err = e.Prepare(fmt.Sprintf(`select a from t where a > ? + %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if e.PlanCacheLen() != planCacheSize {
		t.Fatalf("PlanCacheLen = %d, want %d", e.PlanCacheLen(), planCacheSize)
	}
	if n := e.Metrics().Sub(m0).PlanCacheEvictions; n != 1 {
		t.Fatalf("PlanCacheEvictions = %d, want 1", n)
	}
	// The first statement was evicted: it still runs, and recompiles (miss).
	res, err := stmts[0].QueryContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.CacheStatus != "miss" {
		t.Fatalf("evicted stmt status = %q, want miss", res.Plan.CacheStatus)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

// TestStmtSharedAcrossGoroutines: one *Stmt, 8 goroutines, distinct
// parameter values — every run must get its own correct answer and its
// own exact IO attribution (per-query session deltas sum to the engine's
// global delta). Run under -race this is also the data-race proof for the
// frozen shared plan tree.
func TestStmtSharedAcrossGoroutines(t *testing.T) {
	e := setupEmpDept(t)
	stmt, err := e.Prepare(`select count(*) from emp where age < ?`)
	if err != nil {
		t.Fatal(err)
	}
	// Expected counts per cutoff, computed single-threaded first.
	const workers = 8
	const iters = 5
	want := map[int]int64{}
	for w := 0; w < workers; w++ {
		cut := 20 + w*5
		res, err := e.Query(context.Background(), fmt.Sprintf(`select count(*) from emp where age < %d`, cut))
		if err != nil {
			t.Fatal(err)
		}
		want[cut] = res.Rows[0][0].(int64)
	}

	before := e.IOStats()
	var mu sync.Mutex
	var sum IOStats
	hits := 0
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cut := 20 + w*5
			for it := 0; it < iters; it++ {
				res, err := stmt.QueryContext(context.Background(), cut)
				if err != nil {
					errCh <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if got := res.Rows[0][0].(int64); got != want[cut] {
					errCh <- fmt.Errorf("worker %d: count(age<%d) = %d, want %d", w, cut, got, want[cut])
					return
				}
				mu.Lock()
				sum.Reads += res.IO.Reads
				sum.Writes += res.IO.Writes
				sum.Hits += res.IO.Hits
				if res.Plan.CacheStatus == "hit" {
					hits++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if hits != workers*iters {
		t.Errorf("cache hits = %d, want %d (every run should reuse the plan)", hits, workers*iters)
	}
	delta := e.IOStats().Sub(before)
	if sum != delta {
		t.Errorf("per-query IO sums %+v != engine global delta %+v", sum, delta)
	}
}

// TestPrepareStreamingAndExplain: the streaming and EXPLAIN ANALYZE
// surfaces of a prepared statement, including cache provenance in the
// rendered analysis.
func TestPrepareStreamingAndExplain(t *testing.T) {
	e := setupEmpDept(t)
	stmt, err := e.Prepare(`select eno, sal from emp where sal > ? order by sal desc limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.QueryRows(context.Background(), 1000.0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var prev float64
	for rows.Next() {
		var eno int64
		var sal float64
		if err := rows.Scan(&eno, &sal); err != nil {
			t.Fatal(err)
		}
		if n > 0 && sal > prev {
			t.Fatalf("order by sal desc violated: %g after %g", sal, prev)
		}
		prev = sal
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("limit 5 returned %d rows", n)
	}

	a, err := stmt.ExplainAnalyze(context.Background(), 1000.0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.CacheStatus != "hit" {
		t.Fatalf("ExplainAnalyze CacheStatus = %q, want hit", a.Plan.CacheStatus)
	}
	if !strings.Contains(a.String(), "plan cache: hit") {
		t.Fatalf("rendered analysis lacks cache provenance:\n%s", a.String())
	}
}
