package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aggview"
)

// Transaction crash sweep: a multi-statement transaction must be
// all-or-nothing on disk. Until Commit, a transaction writes nothing to
// the log; Commit appends the whole batch as one TxnBegin/TxnCommit-framed
// group and fsyncs before acknowledging. So a crash at ANY physical write
// offset inside Commit must recover to the pre-transaction fingerprint
// (the torn group is discarded), and only a Commit that returned success
// may — and then must — recover to the post-transaction fingerprint.

// txnSweepSetup seeds a durable engine with tables, rows, and a matview so
// the swept transaction exercises every record kind recovery handles.
func txnSweepSetup(t *testing.T, eng *aggview.Engine) {
	t.Helper()
	eng.MustExec(`create table sales (region varchar, qty int, amount float)`)
	eng.MustExec(`insert into sales values ('east', 5, 50.0), ('west', 3, 30.0), ('east', 2, 20.0)`)
	eng.MustExec(`create materialized view sales_by_region as
		select region, sum(qty) as sq, count(*) as n from sales group by region`)
	eng.MustExec(`analyze`)
}

// txnSweepBody runs the transaction under test: inserts that trigger
// incremental matview maintenance — the first doubles the two-row backing
// table and merges it, the single-group inserts after it double it again —
// DDL, and a multi-row insert into the new table. Every statement applies
// to the txn's private state only.
func txnSweepBody(tx *aggview.Txn) error {
	for _, stmt := range []string{
		`insert into sales values ('north', 7, 70.0), ('east', 1, 10.0)`,
		`insert into sales values ('east', 1, 10.0)`,
		`insert into sales values ('east', 1, 10.0)`,
		`insert into sales values ('east', 1, 10.0)`,
		`create table refunds (region varchar, amount float)`,
		`insert into refunds values ('east', 5.0), ('north', 2.0)`,
		`analyze sales`,
	} {
		if _, err := tx.Exec(stmt); err != nil {
			return fmt.Errorf("%s: %w", stmt, err)
		}
	}
	return nil
}

// TestTxnCrashSweepCommit sweeps a crash across every physical log write
// of a transaction's Commit (clean and torn). Before the commit group is
// fully durable, recovery must land on the pre-transaction state; once
// Commit has acknowledged, recovery must land on the post-transaction
// state. No crash point may recover to anything in between.
func TestTxnCrashSweepCommit(t *testing.T) {
	// Clean baseline: size the sweep and capture both fingerprints.
	base := t.TempDir()
	eng := openDurable(t, base)
	txnSweepSetup(t, eng)
	fpPre := eng.StateFingerprint()
	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := txnSweepBody(tx); err != nil {
		t.Fatal(err)
	}
	eng.InjectWALCrash(nil) // reset the write counter: count Commit's writes only
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	writes := eng.WALWrites()
	fpPost := eng.StateFingerprint()
	merges := eng.Metrics().MatViewMerges
	eng.Close()
	if merges < 2 {
		t.Fatalf("MatViewMerges = %d; the swept commit group must hold merges", merges)
	}
	if writes < 3 {
		t.Fatalf("commit performed %d writes; the framed group should hold begin+records+commit", writes)
	}
	if fpPre == fpPost {
		t.Fatal("transaction changed nothing; the sweep would be vacuous")
	}

	for _, torn := range []bool{false, true} {
		for n := int64(0); n <= writes; n++ {
			// Each sweep point runs in its own directory and compares against
			// its own pre-transaction fingerprint: fingerprints identify one
			// engine's states, they are not portable across directories.
			dir := t.TempDir()
			eng := openDurable(t, dir)
			txnSweepSetup(t, eng)
			fpPre := eng.StateFingerprint()
			tx, err := eng.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := txnSweepBody(tx); err != nil {
				t.Fatal(err)
			}
			eng.InjectWALCrash(&aggview.CrashPlan{CrashAfterNWrites: n, Torn: torn})
			commitErr := tx.Commit()

			want, wantLabel := fpPre, "pre"
			if n >= writes {
				// The whole group fit before the crash point: Commit must
				// have acknowledged, and the state must survive.
				if commitErr != nil {
					t.Fatalf("n=%d torn=%v: commit failed past the group: %v", n, torn, commitErr)
				}
				want, wantLabel = eng.StateFingerprint(), "post"
			} else {
				if !errors.Is(commitErr, aggview.ErrCrashed) {
					t.Fatalf("n=%d torn=%v: commit err = %v, want wrapped ErrCrashed", n, torn, commitErr)
				}
				// An unacknowledged commit left the engine dead: nothing was
				// published, reads and writes refuse.
				if _, err := eng.Query(context.Background(), `select count(*) from sales s`); !errors.Is(err, aggview.ErrEngineDead) {
					t.Fatalf("n=%d torn=%v: post-crash read err = %v, want ErrEngineDead", n, torn, err)
				}
			}
			eng.Close()

			re := openDurable(t, dir)
			if got := re.StateFingerprint(); got != want {
				t.Fatalf("n=%d torn=%v: recovered fingerprint does not match the %s-transaction state",
					n, torn, wantLabel)
			}
			if w := re.WALWrites(); w != 0 {
				t.Fatalf("n=%d torn=%v: recovery appended %d records", n, torn, w)
			}
			// Atomicity probes: the txn's table exists iff the txn committed,
			// and the matview total reflects whole statements only.
			_, refundsErr := re.Query(context.Background(), `select count(*) from refunds r`)
			res, err := re.Query(context.Background(), `select sum(sq$sum) as q from sales_by_region$mv where region = 'north' group by region`)
			if wantLabel == "pre" {
				if refundsErr == nil {
					t.Fatalf("n=%d torn=%v: rolled-back table refunds survived recovery", n, torn)
				}
				if err == nil && len(res.Rows) != 0 {
					t.Fatalf("n=%d torn=%v: partial matview delta survived recovery: %v", n, torn, res.Rows)
				}
			} else {
				if refundsErr != nil {
					t.Fatalf("n=%d torn=%v: committed table lost: %v", n, torn, refundsErr)
				}
				if err != nil || len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]...) != "7" {
					t.Fatalf("n=%d torn=%v: committed matview delta wrong: %v %v", n, torn, res, err)
				}
			}
			// The recovered engine accepts new work.
			re.MustExec(`insert into sales values ('south', 1, 1.0)`)
			re.Close()
		}
	}
}

// TestTxnOpenCrashRecoversPreState: a transaction open at crash time wrote
// nothing to the log — deferred logging means there is nothing to undo —
// so recovery lands exactly on the pre-transaction state.
func TestTxnOpenCrashRecoversPreState(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir)
	txnSweepSetup(t, eng)
	fpPre := eng.StateFingerprint()
	eng.InjectWALCrash(nil)

	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := txnSweepBody(tx); err != nil {
		t.Fatal(err)
	}
	if got := eng.WALWrites(); got != 0 {
		t.Fatalf("open transaction performed %d log writes; logging must defer to Commit", got)
	}
	// Crash while the transaction is open: the first write (which would be
	// Commit's) dies. The transaction's state must evaporate.
	eng.InjectWALCrash(&aggview.CrashPlan{CrashAfterNWrites: 0})
	if err := tx.Commit(); !errors.Is(err, aggview.ErrCrashed) {
		t.Fatalf("commit err = %v, want wrapped ErrCrashed", err)
	}
	eng.Close()

	re := openDurable(t, dir)
	defer re.Close()
	if got := re.StateFingerprint(); got != fpPre {
		t.Fatal("crash with an open transaction did not recover the pre-transaction state")
	}
}

// TestTxnRollbackLeavesNoTrace: Rollback writes nothing — the log is
// byte-identical to before the transaction, and a reopen reproduces the
// pre-transaction state exactly.
func TestTxnRollbackLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir)
	txnSweepSetup(t, eng)
	fpPre := eng.StateFingerprint()
	eng.InjectWALCrash(nil)

	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := txnSweepBody(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := eng.WALWrites(); got != 0 {
		t.Fatalf("rollback wrote %d log records; it must write none", got)
	}
	if got := eng.StateFingerprint(); got != fpPre {
		t.Fatal("rollback left a trace in the live state")
	}
	// The engine keeps working and persisting after the rollback.
	eng.MustExec(`insert into sales values ('south', 9, 90.0)`)
	fpAfter := eng.StateFingerprint()
	eng.Close()

	re := openDurable(t, dir)
	defer re.Close()
	if got := re.StateFingerprint(); got != fpAfter {
		t.Fatal("reopen after rollback+insert lost the post-rollback state")
	}
}

// TestTxnDurableCommitRoundTrip: a committed multi-statement transaction
// (including matview maintenance) survives a clean close and reopen, and
// the recovered engine equals the pre-close engine byte for byte.
func TestTxnDurableCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir)
	txnSweepSetup(t, eng)
	tx, err := eng.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := txnSweepBody(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	fp := eng.StateFingerprint()
	version := eng.CatalogVersion()
	eng.Close()

	re := openDurable(t, dir)
	defer re.Close()
	if got := re.StateFingerprint(); got != fp {
		t.Fatal("reopen lost the committed transaction")
	}
	if got := re.CatalogVersion(); got != version {
		t.Fatalf("recovered catalog version %d, want %d", got, version)
	}
	res, err := re.Query(context.Background(), `select count(*) as n from refunds r`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]...); got != "2" {
		t.Fatalf("refunds count = %s, want 2", got)
	}
}
