package aggview_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/storage"
)

// Bounded view deltas: incremental maintenance appends a commit's delta
// rows to the backing table and merges the table down to one row per group
// in the commit that doubles it. These tests hold the merge to the same
// oracles as the append — backing table = recompute after every commit —
// and add the bound, the statistics, rollback, snapshots and durability.

// The merge fixture. keep is the view's filter column, so amount and qty —
// every aggregate's argument — may be NULL in rows the view keeps. Measures
// are integers and .5-grained floats: partial sums are exact in any order.
const (
	mergeTable = `CREATE TABLE sales (region TEXT, product TEXT, keep INT, amount FLOAT, qty INT)`
	mergeView  = `CREATE MATERIALIZED VIEW m AS
		SELECT region, product, SUM(amount) AS total, COUNT(*) AS n, COUNT(amount) AS ca,
			MIN(qty) AS mn, MAX(qty) AS mx, AVG(qty) AS aq, STDDEV(qty) AS sd
		FROM sales WHERE keep > 0 GROUP BY region, product`
	mergeCoalesce = `SELECT region, product, SUM(total$sum) AS total, SUM(n$cnt) AS n, SUM(ca$cnt) AS ca,
			MIN(mn$min) AS mn, MAX(mx$max) AS mx, SUM(aq$sum) AS aqs, SUM(aq$cnt) AS aqc,
			SUM(sd$sum) AS sds, SUM(sd$sq) AS sdq, SUM(sd$cnt) AS sdc
		FROM m$mv GROUP BY region, product`
	mergeRecompute = `SELECT region, product, SUM(amount) AS total, COUNT(*) AS n, COUNT(amount) AS ca,
			MIN(qty) AS mn, MAX(qty) AS mx, SUM(qty) AS aqs, COUNT(qty) AS aqc,
			SUM(qty) AS sds, SUM(qty * qty) AS sdq, COUNT(qty) AS sdc
		FROM sales WHERE keep > 0 GROUP BY region, product`
	mergeRollup = `SELECT region, SUM(amount) AS total, COUNT(*) AS n, MIN(qty) AS mn, MAX(qty) AS mx, AVG(qty) AS aq
		FROM sales WHERE keep > 0 GROUP BY region`
	mergeStdDev = `SELECT region, STDDEV(qty) AS sd FROM sales WHERE keep > 0 GROUP BY region`
)

// mergePageRows bounds the rows of m$mv that fit one page: a row is at
// least its 4-byte header, two NULL keys and four 8-byte counts, with six
// NULL partials.
const mergePageRows = storage.PageSize / (4 + 2 + 4*8 + 6)

// mergeRow renders one generated row: an existing group, now and then
// (fresh non-nil) a new one, a NULL key, a NULL argument, or a row the
// filter drops.
func mergeRow(rng *rand.Rand, fresh *int) string {
	region := fmt.Sprintf("'r%d'", rng.Intn(3))
	switch rng.Intn(12) {
	case 0:
		region = "NULL"
	case 1:
		if fresh != nil {
			*fresh++
			region = fmt.Sprintf("'n%d'", *fresh)
		}
	}
	product := fmt.Sprintf("'p%d'", rng.Intn(4))
	if rng.Intn(15) == 0 {
		product = "NULL"
	}
	amount, qty := fmt.Sprintf("%d.5", rng.Intn(90)), fmt.Sprint(rng.Intn(9)-2)
	if rng.Intn(6) == 0 {
		amount = "NULL"
	}
	if rng.Intn(6) == 0 {
		qty = "NULL"
	}
	return fmt.Sprintf("(%s, %s, %d, %s, %s)", region, product, rng.Intn(4), amount, qty)
}

func mergeInsert(rng *rand.Rand, fresh *int, rows int) string {
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = mergeRow(rng, fresh)
	}
	return "INSERT INTO sales VALUES " + strings.Join(vals, ", ")
}

// loadMergeFixture fills sales with enough rows that the view-backed plan
// is the cheaper one, and creates the view.
func loadMergeFixture(t *testing.T, e *aggview.Engine, rng *rand.Rand) {
	t.Helper()
	e.MustExec(mergeTable)
	for i := 0; i < 4; i++ {
		e.MustExec(mergeInsert(rng, nil, 500))
	}
	e.MustExec("ANALYZE")
	e.MustExec(mergeView)
}

// TestMatViewMergeDifferential: a seeded insert stream long enough to cross
// many merges. After every commit the backing table coalesces to the
// recompute, holds at most 2 × groups rows plus a page, and a view-backed
// rollup equals its base-table answer; the merge counters move.
func TestMatViewMergeDifferential(t *testing.T) {
	for name, cfg := range map[string]aggview.Config{
		"default": {PoolPages: 16},
		"batch1":  {PoolPages: 16, BatchSize: 1},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			e := aggview.Open(cfg)
			loadMergeFixture(t, e, rng)
			before := e.Metrics()
			commits := 240
			if testing.Short() {
				commits = 100
			}
			var fresh int
			for c := 0; c < commits; c++ {
				if c%10 == 9 {
					// An explicit transaction: several statements share the
					// view's bound definition, and any of them may merge.
					tx, err := e.Begin(ctx())
					if err != nil {
						t.Fatal(err)
					}
					for s := 0; s < 3; s++ {
						if _, err := tx.Exec(mergeInsert(rng, &fresh, 1+rng.Intn(2))); err != nil {
							t.Fatal(err)
						}
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					e.MustExec(mergeInsert(rng, &fresh, 1+rng.Intn(3)))
				}

				matviewRecomputeEqual(t, e, mergeCoalesce, mergeRecompute)
				groups, err := e.Query(ctx(), mergeRecompute, aggview.WithoutViewRewrite())
				if err != nil {
					t.Fatal(err)
				}
				stored, err := e.Query(ctx(), "SELECT COUNT(*) FROM m$mv")
				if err != nil {
					t.Fatal(err)
				}
				if got, bound := stored.Rows[0][0].(int64), int64(2*groups.Len()+mergePageRows); got > bound {
					t.Fatalf("commit %d: m$mv holds %d rows for %d groups; bound %d", c, got, groups.Len(), bound)
				}

				view, err := e.Query(ctx(), mergeRollup)
				if err != nil {
					t.Fatal(err)
				}
				if view.Plan.ViewRewrite != "m" {
					t.Fatalf("commit %d: rollup not view-backed\n%s", c, view.Plan.PlanText)
				}
				base, err := e.Query(ctx(), mergeRollup, aggview.WithoutViewRewrite())
				if err != nil {
					t.Fatal(err)
				}
				if !equalRows(sortedRows(view), sortedRows(base)) {
					t.Fatalf("commit %d: view-backed rollup differs from base\nview: %v\nbase: %v",
						c, sortedRows(view), sortedRows(base))
				}
				checkStdDev(t, e, c)
			}
			got := e.Metrics().Sub(before)
			if got.MatViewMerges < 5 || got.MatViewRowsMerged < got.MatViewMerges {
				t.Fatalf("MatViewMerges = %d, MatViewRowsMerged = %d; want at least 5 merges, each removing rows",
					got.MatViewMerges, got.MatViewRowsMerged)
			}
		})
	}
}

// checkStdDev compares the multi-part aggregate through the view and from
// the base table. Its final expression takes a square root of float
// quotients, so the two sides agree to rounding, not to the bit.
func checkStdDev(t *testing.T, e *aggview.Engine, commit int) {
	t.Helper()
	view, err := e.Query(ctx(), mergeStdDev)
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Query(ctx(), mergeStdDev, aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if view.Plan.ViewRewrite != "m" || view.Len() != base.Len() {
		t.Fatalf("commit %d: STDDEV rollup: rewrite %q, %d rows vs %d", commit, view.Plan.ViewRewrite, view.Len(), base.Len())
	}
	want := map[string]any{}
	for _, r := range base.Rows {
		want[fmt.Sprint(r[0])] = r[1]
	}
	for _, r := range view.Rows {
		w, ok := want[fmt.Sprint(r[0])]
		gf, gIsF := r[1].(float64)
		wf, wIsF := w.(float64)
		if !ok || gIsF != wIsF || (gIsF && math.Abs(gf-wf) > 1e-9*(1+math.Abs(wf))) {
			t.Fatalf("commit %d: STDDEV of region %v: view %v, base %v", commit, r[0], r[1], w)
		}
	}
}

// TestMatViewStatsTrackLiveRows: every merge re-analyzes the backing table,
// so the optimizer's row estimate for a view-backed rollup stays within 2×
// of the rows the table really holds. Each commit adds a group, so the
// table grows without bound; before merging, its statistics stayed at the
// three rows it was created with.
func TestMatViewStatsTrackLiveRows(t *testing.T) {
	e := aggview.Open(aggview.Config{PoolPages: 16})
	loadSalesWarehouse(t, e, 20000)
	e.MustExec(`CREATE MATERIALIZED VIEW m AS SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region`)
	const q = `SELECT region, SUM(amount) AS total FROM sales GROUP BY region`
	for c := 0; c < 200; c++ {
		e.MustExec(fmt.Sprintf("INSERT INTO sales VALUES ('n%d', 'p0', 1, 1.5, 1)", c))
		info, err := e.Explain(ctx(), q)
		if err != nil {
			t.Fatal(err)
		}
		live, loaded, ok := e.MatViewRows("m")
		if !ok || info.ViewRewrite != "m" {
			t.Fatalf("commit %d: rewrite %q, MatViewRows ok=%v", c, info.ViewRewrite, ok)
		}
		if est := info.EstimatedRows; est*2 < float64(live) || est > 2*float64(live) {
			t.Fatalf("commit %d: estimated %.0f rows; m$mv holds %d (%d at its last load)", c, est, live, loaded)
		}
	}
}

// TestMatViewMergeRollback: a transaction whose INSERT merged the backing
// table and then rolls back leaves the published state untouched — the old
// backing table, page for page — and counts no merge.
func TestMatViewMergeRollback(t *testing.T) {
	e := aggview.Open(aggview.Config{})
	e.MustExec("CREATE TABLE sales (region TEXT, qty INT)")
	e.MustExec("INSERT INTO sales VALUES ('r0', 1), ('r1', 2)")
	e.MustExec("CREATE MATERIALIZED VIEW m AS SELECT region, SUM(qty) AS sq, COUNT(*) AS n FROM sales GROUP BY region")
	e.MustExec("INSERT INTO sales VALUES ('r0', 3)") // one unmerged delta row
	const stored = "SELECT region, sq$sum, n$cnt FROM m$mv"
	before, err := e.Query(ctx(), stored)
	if err != nil {
		t.Fatal(err)
	}
	fp, metrics := e.StateFingerprint(), e.Metrics()

	tx, err := e.Begin(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO sales VALUES ('r1', 4)"); err != nil {
		t.Fatal(err)
	}
	inside, err := tx.Query(ctx(), stored)
	if err != nil {
		t.Fatal(err)
	}
	if before.Len() != 3 || inside.Len() != 2 {
		t.Fatalf("m$mv held %d rows before and %d inside the transaction; want 3 unmerged, 2 merged", before.Len(), inside.Len())
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	after, err := e.Query(ctx(), stored)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(sortedRows(before), sortedRows(after)) || e.StateFingerprint() != fp {
		t.Fatalf("rollback of a merging transaction changed the published state\nbefore: %v\nafter:  %v",
			sortedRows(before), sortedRows(after))
	}
	if got := e.Metrics().Sub(metrics); got.MatViewMerges != 0 || got.MatViewRowsMerged != 0 {
		t.Fatalf("rolled-back merge was counted: %d merges, %d rows", got.MatViewMerges, got.MatViewRowsMerged)
	}
	// The same statement, committed, merges for real.
	e.MustExec("INSERT INTO sales VALUES ('r1', 4)")
	if live, loaded, _ := e.MatViewRows("m"); live != 2 || loaded != 2 || e.Metrics().Sub(metrics).MatViewMerges != 1 {
		t.Fatalf("committed merge: m$mv holds %d rows (%d loaded), %d merges", live, loaded, e.Metrics().Sub(metrics).MatViewMerges)
	}
	matviewRecomputeEqual(t, e,
		"SELECT region, SUM(sq$sum) AS sq, SUM(n$cnt) AS n FROM m$mv GROUP BY region",
		"SELECT region, SUM(qty) AS sq, COUNT(*) AS n FROM sales GROUP BY region")
}

// TestSnapshotCursorAcrossMerge: cursors opened before a merging commit —
// one on a view-backed plan, one scanning the backing table row by row, so
// it is mid-file when the merge drops that file — drain exactly their
// snapshot's rows; a reader that starts after the commit sees the merged
// table.
func TestSnapshotCursorAcrossMerge(t *testing.T) {
	const groups = 400 // several pages of backing rows
	e := aggview.Open(aggview.Config{PoolPages: 8, BatchSize: 1})
	e.MustExec("CREATE TABLE sales (region TEXT, pad TEXT, qty INT)")
	insertAll := func(qty int) string {
		vals := make([]string, groups)
		for g := range vals {
			vals[g] = fmt.Sprintf("('g%03d', 'padding-padding-padding-padding', %d)", g, qty)
		}
		return "INSERT INTO sales VALUES " + strings.Join(vals, ", ")
	}
	for i := 0; i < 5; i++ {
		e.MustExec(insertAll(1))
	}
	e.MustExec("ANALYZE")
	e.MustExec("CREATE MATERIALIZED VIEW m AS SELECT region, SUM(qty) AS sq, COUNT(*) AS n FROM sales GROUP BY region")

	const rollup = "SELECT region, SUM(qty) AS sq FROM sales GROUP BY region"
	const scan = "SELECT region, sq$sum, n$cnt FROM m$mv"
	var frozen [2]string
	var cursors [2]*aggview.Rows
	var partial [2][]string
	for i, q := range []string{rollup, scan} {
		res, err := e.Query(ctx(), q)
		if err != nil {
			t.Fatal(err)
		}
		frozen[i] = rowsFingerprint(res)
		rows, err := e.QueryRows(ctx(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("%s: no first row: %v", q, rows.Err())
		}
		partial[i] = append(partial[i], fmt.Sprint(rows.Value()...))
		cursors[i] = rows
	}
	if got := cursors[0].Plan().ViewRewrite; got != "m" {
		t.Fatalf("rollup cursor is not view-backed (rewrite %q)", got)
	}

	before := e.Metrics()
	e.MustExec(insertAll(2)) // one delta row per group: the table doubles and merges
	if live, loaded, _ := e.MatViewRows("m"); e.Metrics().Sub(before).MatViewMerges != 1 || live != groups || loaded != groups {
		t.Fatalf("the commit did not merge: m$mv holds %d rows, %d at its last load", live, loaded)
	}

	for i, rows := range cursors {
		got := partial[i]
		for rows.Next() {
			got = append(got, fmt.Sprint(rows.Value()...))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if fp := strings.Join(sortedStrings(got), "\n"); fp != frozen[i] {
			t.Fatalf("cursor %d diverged across the merging commit:\ngot:\n%s\nwant:\n%s", i, fp, frozen[i])
		}
	}

	after, err := e.Query(ctx(), scan)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != groups {
		t.Fatalf("a reader after the commit sees %d backing rows, want %d merged", after.Len(), groups)
	}
	for _, r := range after.Rows {
		if r[1] != int64(7) || r[2] != int64(6) {
			t.Fatalf("merged row %v, want sq 7 over 6 rows", r)
		}
	}
	view, err := e.Query(ctx(), rollup)
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Query(ctx(), rollup, aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if view.Plan.ViewRewrite != "m" || !equalRows(sortedRows(view), sortedRows(base)) {
		t.Fatalf("after the merge the view-backed rollup (rewrite %q) differs from base", view.Plan.ViewRewrite)
	}
}

// TestMatViewMergeDurability: merging commits round-trip through the log
// and through a checkpoint with a stable fingerprint — replay re-runs the
// logged reload, it does not merge on its own — and recovery appends
// nothing.
func TestMatViewMergeDurability(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	rng := rand.New(rand.NewSource(3))
	loadMergeFixture(t, e, rng)
	var fresh int
	grow := func(e *aggview.Engine, commits int) {
		for c := 0; c < commits; c++ {
			e.MustExec(mergeInsert(rng, &fresh, 2))
		}
	}
	grow(e, 60)
	if got := e.Metrics().MatViewMerges; got < 2 {
		t.Fatalf("MatViewMerges = %d; the stream should have merged", got)
	}
	fp := e.StateFingerprint()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	if re.StateFingerprint() != fp || re.WALWrites() != 0 {
		t.Fatalf("recovery diverged or wrote to the log (%d writes)", re.WALWrites())
	}
	matviewRecomputeEqual(t, re, mergeCoalesce, mergeRecompute)
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	grow(re, 60)
	fp2 := re.StateFingerprint()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	re2 := openDurable(t, dir)
	defer re2.Close()
	if re2.StateFingerprint() != fp2 || re2.WALWrites() != 0 {
		t.Fatalf("post-checkpoint recovery diverged or wrote to the log (%d writes)", re2.WALWrites())
	}
	matviewRecomputeEqual(t, re2, mergeCoalesce, mergeRecompute)
	view, err := re2.Query(context.Background(), mergeRollup)
	if err != nil {
		t.Fatal(err)
	}
	base, err := re2.Query(context.Background(), mergeRollup, aggview.WithoutViewRewrite())
	if err != nil {
		t.Fatal(err)
	}
	if view.Plan.ViewRewrite != "m" || !equalRows(sortedRows(view), sortedRows(base)) {
		t.Fatalf("recovered view-backed rollup (rewrite %q) differs from base", view.Plan.ViewRewrite)
	}
}
