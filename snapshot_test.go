package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aggview"
)

// Snapshot-isolation suite. Readers pin the published catalog snapshot
// when they open; a writer that commits mid-read must never change what an
// already-open cursor returns, and must never block (or be blocked by) the
// readers. These tests compare pinned reads byte-for-byte against results
// frozen before the writer ran, across in-memory and durable engines and
// across executor batch sizes.

// snapshotQueries is the differential workload: an outer join with NULL
// and dangling keys (padding is where stale snapshots would show first), a
// matview-backed aggregate, and a plain grouped join.
var snapshotQueries = []string{
	`select d.dno as dno, count(*) as star, count(e.eno) as ce, sum(e.sal) as ss
	 from dept d left join emp e on e.dno = d.dno group by d.dno order by dno`,
	`select dno, sum(total$sum) as t, sum(n$cnt) as n from pay_by_dept$mv group by dno order by dno`,
	`select e.dno as dno, max(e.sal) as m from emp e, dept d
	 where e.dno = d.dno group by e.dno order by dno`,
	`select count(*) as n from emp e`,
}

// loadSnapshotFixture builds emp/dept with NULL and dangling foreign keys
// plus a materialized view, so the workload exercises outer-join padding
// and matview maintenance under concurrent commits.
func loadSnapshotFixture(t *testing.T, e *aggview.Engine) {
	t.Helper()
	e.MustExec(`create table dept (dno int primary key, budget float)`)
	e.MustExec(`create table emp (eno int primary key, dno int, sal float)`)
	e.MustExec(`insert into dept values (10, 1000), (20, 2000), (30, 3000)`)
	e.MustExec(`insert into emp values (1, 10, 100), (2, 20, 200), (3, null, 300), (4, 99, 400), (5, 10, 500)`)
	e.MustExec(`create materialized view pay_by_dept as
		select dno, sum(sal) as total, count(*) as n from emp group by dno`)
	e.MustExec(`analyze`)
}

// snapshotEngines yields the engine shapes the differential must hold on:
// in-memory and durable, vectorized and row-at-a-time, with a pool small
// enough that scans actually revisit pages mid-write.
func snapshotEngines(t *testing.T) map[string]*aggview.Engine {
	t.Helper()
	engines := map[string]*aggview.Engine{
		"mem-default": aggview.Open(aggview.Config{PoolPages: 16}),
		"mem-batch1":  aggview.Open(aggview.Config{PoolPages: 8, BatchSize: 1}),
	}
	for name, cfg := range map[string]aggview.Config{
		"durable-default": {PoolPages: 16},
		"durable-batch4":  {PoolPages: 8, BatchSize: 4},
	} {
		cfg.DataDir = t.TempDir()
		eng, err := aggview.OpenDurable(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		engines[name] = eng
	}
	return engines
}

// TestSnapshotPinnedCursorIgnoresCommit is the tentpole's acceptance
// criterion: a streaming cursor opened before a committed INSERT returns
// exactly the pre-write rows — and the INSERT itself runs to completion
// while the cursor is still open, proving readers hold no lock a writer
// needs.
func TestSnapshotPinnedCursorIgnoresCommit(t *testing.T) {
	for name, eng := range snapshotEngines(t) {
		t.Run(name, func(t *testing.T) {
			defer eng.Close()
			loadSnapshotFixture(t, eng)

			frozen := make([]string, len(snapshotQueries))
			for i, q := range snapshotQueries {
				res, err := eng.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("freeze %q: %v", q, err)
				}
				frozen[i] = rowsFingerprint(res)
			}

			// Open one streaming cursor per query and pull a single row from
			// each, so every cursor is pinned mid-iteration before the write.
			cursors := make([]*aggview.Rows, len(snapshotQueries))
			partial := make([][]string, len(snapshotQueries))
			for i, q := range snapshotQueries {
				rows, err := eng.QueryRows(context.Background(), q)
				if err != nil {
					t.Fatalf("open %q: %v", q, err)
				}
				if rows.Next() {
					partial[i] = append(partial[i], fmt.Sprint(rows.Value()...))
				}
				cursors[i] = rows
			}

			// The writer must commit promptly even though four cursors are
			// open: readers pin snapshots, they do not hold locks.
			committed := make(chan error, 1)
			go func() {
				_, err := eng.Exec(`insert into emp values (6, 10, 999), (7, 30, 50), (8, null, 1)`)
				committed <- err
			}()
			select {
			case err := <-committed:
				if err != nil {
					t.Fatalf("concurrent insert: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("INSERT blocked behind open streaming cursors")
			}

			// Drain each pinned cursor: the full result must be byte-identical
			// to the pre-write frozen answer.
			for i, rows := range cursors {
				got := partial[i]
				for rows.Next() {
					got = append(got, fmt.Sprint(rows.Value()...))
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("drain %q: %v", snapshotQueries[i], err)
				}
				rows.Close()
				if fp := strings.Join(sortedStrings(got), "\n"); fp != frozen[i] {
					t.Fatalf("pinned cursor %q diverged after commit:\ngot:\n%s\nwant:\n%s",
						snapshotQueries[i], fp, frozen[i])
				}
			}

			// A cursor opened after the commit sees the new rows.
			res, err := eng.Query(context.Background(), `select count(*) as n from emp e`)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Rows[0]...); got != "8" {
				t.Fatalf("post-commit count = %s, want 8", got)
			}
		})
	}
}

// TestSnapshotDifferentialUnderWrites runs N reader goroutines against a
// writer committing interleaved INSERTs. Each reader repeatedly freezes
// the current answer with a materialized Query, then immediately re-runs
// the same query as a streaming cursor and checks the two agree — any
// torn snapshot (a cursor observing part of a commit) diverges. Rows are
// inserted in same-dept pairs inside one statement, so every snapshot-
// consistent COUNT per dept is even: a parity violation means a reader
// saw half a commit. Run under -race this also audits the lock-free read
// path for data races.
func TestSnapshotDifferentialUnderWrites(t *testing.T) {
	for name, eng := range snapshotEngines(t) {
		t.Run(name, func(t *testing.T) {
			defer eng.Close()
			loadSnapshotFixture(t, eng)
			// Clear the odd seed rows in dept 10 so pair-parity holds: start
			// from an empty parity table instead.
			eng.MustExec(`create table pairs (k int, v int)`)

			const (
				readers = 4
				rounds  = 12
				commits = 25
			)
			var wg sync.WaitGroup
			errs := make(chan error, readers+1)

			wg.Add(1)
			go func() { // writer: each statement inserts a same-key pair
				defer wg.Done()
				for i := 0; i < commits; i++ {
					q := fmt.Sprintf(`insert into pairs values (%d, 1), (%d, 2)`, i%5, i%5)
					if _, err := eng.Exec(q); err != nil {
						errs <- fmt.Errorf("writer commit %d: %w", i, err)
						return
					}
				}
			}()

			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					const parityQ = `select k, count(*) as n from pairs group by k order by k`
					for i := 0; i < rounds; i++ {
						// Parity: no snapshot may expose half of a pair.
						res, err := eng.Query(context.Background(), parityQ)
						if err != nil {
							errs <- fmt.Errorf("reader %d parity: %w", r, err)
							return
						}
						for _, row := range res.Rows {
							if n, ok := row[1].(int64); ok && n%2 != 0 {
								errs <- fmt.Errorf("reader %d: torn snapshot, odd pair count %v", r, row)
								return
							}
						}
						// Differential: a materialized answer and a streaming
						// cursor opened back-to-back each pin one snapshot;
						// both must be internally consistent with the fixture
						// queries (which the writer never touches), so the
						// cursor must reproduce its own engine's frozen run.
						q := snapshotQueries[i%len(snapshotQueries)]
						want, err := eng.Query(context.Background(), q)
						if err != nil {
							errs <- fmt.Errorf("reader %d freeze: %w", r, err)
							return
						}
						got, err := eng.Query(context.Background(), q)
						if err != nil {
							errs <- fmt.Errorf("reader %d reread: %w", r, err)
							return
						}
						if rowsFingerprint(got) != rowsFingerprint(want) {
							errs <- fmt.Errorf("reader %d: %q unstable across snapshots of untouched tables", r, q)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// All pairs landed: the final state has every commit, whole.
			res, err := eng.Query(context.Background(), `select count(*) as n from pairs p`)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Rows[0]...); got != fmt.Sprint(2*commits) {
				t.Fatalf("final pair rows = %s, want %d", got, 2*commits)
			}
		})
	}
}

// TestReadsProceedWhileTxnHeld is the no-reader-lock audit: with an open
// transaction holding the writer gate, every read-path entry point must
// complete promptly against the published snapshot — none of them may
// touch the writer lock. The transaction's uncommitted writes stay
// invisible throughout.
func TestReadsProceedWhileTxnHeld(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	loadSnapshotFixture(t, eng)

	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`insert into emp values (100, 10, 7777)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`create table txn_private (x int)`); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- func() error {
			res, err := eng.Query(context.Background(), `select count(*) as n from emp e`)
			if err != nil {
				return fmt.Errorf("Query: %w", err)
			}
			if got := fmt.Sprint(res.Rows[0]...); got != "5" {
				return fmt.Errorf("reader saw uncommitted txn writes: count = %s, want 5", got)
			}
			rows, err := eng.QueryRows(context.Background(), `select e.eno as eno from emp e`)
			if err != nil {
				return fmt.Errorf("QueryRows: %w", err)
			}
			n := 0
			for rows.Next() {
				n++
			}
			rows.Close()
			if n != 5 {
				return fmt.Errorf("streaming reader saw %d rows, want 5", n)
			}
			st, err := eng.Prepare(`select sal from emp where eno = ?`)
			if err != nil {
				return fmt.Errorf("Prepare: %w", err)
			}
			if _, err := st.QueryContext(context.Background(), 1); err != nil {
				return fmt.Errorf("Stmt.Query: %w", err)
			}
			if _, err := eng.Exec(`explain select dno from emp group by dno`); err != nil {
				return fmt.Errorf("EXPLAIN: %w", err)
			}
			for _, tbl := range eng.Tables() {
				if tbl == "txn_private" {
					return errors.New("Tables() listed the txn's uncommitted table")
				}
			}
			eng.MatViews()
			eng.StateFingerprint()
			eng.CatalogVersion()
			return nil
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reads wedged behind an open transaction: a read path still takes the writer lock")
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), `select count(*) as n from emp e`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]...); got != "6" {
		t.Fatalf("post-commit count = %s, want 6", got)
	}
}

// TestTxnVisibility: a transaction sees its own uncommitted writes (tables,
// rows, matview effects); the engine does not until Commit publishes them,
// and then sees all of them at once.
func TestTxnVisibility(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	loadSnapshotFixture(t, eng)

	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`insert into emp values (6, 20, 600), (7, 20, 700)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`create table audit (who int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`insert into audit values (1)`); err != nil {
		t.Fatal(err)
	}

	// The txn reads its own writes — through Query, Exec(SELECT), and the
	// incrementally maintained matview.
	res, err := tx.Query(context.Background(), `select count(*) as n from emp e`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]...); got != "7" {
		t.Fatalf("txn count = %s, want 7", got)
	}
	res, err = tx.Exec(`select sum(total$sum) as t from pay_by_dept$mv where dno = 20 group by dno`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]...); got != "1500" {
		t.Fatalf("txn matview total = %s, want 1500 (200+600+700)", got)
	}

	// The engine still sees the pre-txn world.
	if res, err = eng.Query(context.Background(), `select sum(total$sum) as t from pay_by_dept$mv where dno = 20 group by dno`); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]...); got != "200" {
		t.Fatalf("engine matview total = %s, want 200 before commit", got)
	}
	if _, err := eng.Query(context.Background(), `select count(*) as n from audit a`); err == nil {
		t.Fatal("engine resolved the txn's uncommitted table")
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Everything lands atomically.
	if res, err = eng.Query(context.Background(), `select sum(total$sum) as t from pay_by_dept$mv where dno = 20 group by dno`); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]...); got != "1500" {
		t.Fatalf("post-commit matview total = %s, want 1500", got)
	}
	if res, err = eng.Query(context.Background(), `select count(*) as n from audit a`); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]...); got != "1" {
		t.Fatalf("post-commit audit count = %s, want 1", got)
	}
}

// TestTxnRollbackAndDone: Rollback leaves no trace and releases the writer
// gate; finished transactions reject every method with ErrTxnDone.
func TestTxnRollbackAndDone(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	loadSnapshotFixture(t, eng)
	before := eng.StateFingerprint()
	version := eng.CatalogVersion()

	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`insert into emp values (50, 10, 1.0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`drop table dept`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	if got := eng.StateFingerprint(); got != before {
		t.Fatal("rollback left a trace in the published state")
	}
	if got := eng.CatalogVersion(); got != version {
		t.Fatalf("rollback bumped the catalog version %d -> %d", version, got)
	}

	// The gate is free: an auto-commit write and a fresh txn both proceed.
	eng.MustExec(`insert into emp values (60, 20, 2.0)`)
	tx2, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Done-state guards.
	if _, err := tx.Exec(`insert into emp values (70, 10, 3.0)`); !errors.Is(err, aggview.ErrTxnDone) {
		t.Fatalf("Exec after Rollback: %v, want ErrTxnDone", err)
	}
	if _, err := tx2.Query(context.Background(), `select count(*) from emp e`); !errors.Is(err, aggview.ErrTxnDone) {
		t.Fatalf("Query after Commit: %v, want ErrTxnDone", err)
	}
	if err := tx2.Commit(); !errors.Is(err, aggview.ErrTxnDone) {
		t.Fatalf("double Commit: %v, want ErrTxnDone", err)
	}
	if err := tx.Rollback(); !errors.Is(err, aggview.ErrTxnDone) {
		t.Fatalf("double Rollback: %v, want ErrTxnDone", err)
	}
}

// TestTxnSerializesWriters: a second writer (auto-commit statement) blocks
// while a transaction is open and proceeds as soon as it ends — observing
// the committed state, never the intermediate one.
func TestTxnSerializesWriters(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	loadSnapshotFixture(t, eng)

	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`insert into emp values (200, 10, 5.0)`); err != nil {
		t.Fatal(err)
	}

	second := make(chan error, 1)
	go func() {
		_, err := eng.Exec(`insert into emp values (201, 10, 6.0)`)
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("second writer ran inside an open transaction (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
		// Still blocked on the gate, as required.
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("second writer after commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second writer never admitted after Commit released the gate")
	}

	res, err := eng.Query(context.Background(), `select count(*) as n from emp e`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]...); got != "7" {
		t.Fatalf("count = %s, want 7 (both writers landed)", got)
	}

	// Begin respects context cancellation while the gate is held.
	tx2, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := eng.Begin(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Begin under held gate: %v, want DeadlineExceeded", err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnRejectsExplain: EXPLAIN inside a transaction is refused (its cold
// run would drop shared caches while holding the gate).
func TestTxnRejectsExplain(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	loadSnapshotFixture(t, eng)
	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`explain select count(*) from emp e`); err == nil ||
		!strings.Contains(err.Error(), "EXPLAIN") {
		t.Fatalf("EXPLAIN in txn: %v, want rejection", err)
	}
}

// TestTxnPlansNeverCached: plans compiled against a transaction's working
// snapshot must not poison the shared plan cache — after the txn rolls
// back, the same query on the engine answers from the published state.
func TestTxnPlansNeverCached(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	loadSnapshotFixture(t, eng)
	const q = `select count(*) as n from emp e`

	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`insert into emp values (300, 10, 9.0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	res, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]...); got != "5" {
		t.Fatalf("count after rollback = %s, want 5", got)
	}
}
