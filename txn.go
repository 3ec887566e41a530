package aggview

import (
	"context"
	"errors"

	txnpkg "aggview/internal/txn"
)

// ErrTxnDone is returned by every Txn method after Commit or Rollback has
// completed the transaction.
var ErrTxnDone = errors.New("aggview: transaction already committed or rolled back")

// Txn is an explicit multi-statement transaction. It is the engine's
// single writer for its whole lifetime: Begin acquires the writer gate,
// every Exec applies to a private copy-on-write catalog snapshot (visible
// to this transaction's own queries, invisible to everyone else), and
// Commit makes the whole batch durable — one framed, fsynced log group —
// before publishing it to readers atomically. Rollback discards the
// private snapshot; nothing was logged, so there is nothing to undo.
//
// Queries on the engine proceed freely while a Txn is open: they pin the
// last published snapshot and never observe uncommitted state. Queries on
// the Txn itself read the transaction's working state, so a transaction
// sees its own writes.
//
// A Txn is owned by one goroutine: its methods must not be called
// concurrently. Holding a Txn open blocks every other writer (including
// auto-commit statements) until Commit or Rollback, so keep transactions
// short.
type Txn struct {
	e    *Engine
	rec  *txnpkg.Recorder
	done bool

	// merges and rowsMerged count the backing-table merges this transaction
	// ran, published to the metrics at Commit.
	merges, rowsMerged int64
}

// Begin starts an explicit transaction, blocking until the calling
// goroutine is admitted as the engine's single writer (ctx cancels the
// wait), and opens a copy-on-write batch on the catalog — on a durable
// engine with a txn.Recorder capturing the batch's log records. The
// transaction must end with exactly one Commit or Rollback. Every write in
// the engine is a transaction; see autoCommit.
func (e *Engine) Begin(ctx context.Context) (*Txn, error) {
	if err := e.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	if err := e.walAlive(); err != nil {
		e.gate.Release()
		return nil, err
	}
	e.cat.BeginWrite()
	t := &Txn{e: e}
	if e.wal != nil {
		t.rec = txnpkg.NewRecorder(e.cat.Version)
		e.cat.SetLogger(t.rec)
	}
	return t, nil
}

// autoCommit runs apply as one transaction: Begin, apply, Commit — or
// Rollback when apply fails or panics, so readers and the on-disk log see
// either all of a statement's effects or none.
func (e *Engine) autoCommit(ctx context.Context, apply func(*Txn) error) error {
	t, err := e.Begin(ctx)
	if err != nil {
		return err
	}
	defer t.Rollback() // a no-op once Commit has run
	if err := apply(t); err != nil {
		return err
	}
	return t.Commit()
}

// Exec parses and executes one statement inside the transaction. Writes
// (DDL, INSERT, ANALYZE) apply to the transaction's private state; SELECT
// reads that same state, so the transaction observes its own uncommitted
// writes (EXPLAIN is refused). A failed statement leaves the transaction
// open with its previous statements intact — the caller decides whether to
// retry, continue, or roll back. (Statement-level atomicity inside a
// transaction is not rolled back automatically: a multi-action statement
// that fails midway leaves its partial effects in the working state;
// Rollback discards them along with everything else.)
func (t *Txn) Exec(src string) (*Result, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	return t.e.exec(context.Background(), t, src, nil)
}

// Query executes a SELECT against the transaction's working state —
// including its own uncommitted writes — and materializes the result before
// returning: the working state is only guaranteed stable until the next
// Exec, so no streaming cursor may outlive a statement boundary. Plans
// compiled here never enter the engine's plan cache.
func (t *Txn) Query(ctx context.Context, src string, opts ...QueryOption) (res *Result, err error) {
	defer recoverToError(&err, src)
	if t.done {
		return nil, ErrTxnDone
	}
	return materialize(t.e.query(ctx, src, rowsOptions{snap: t.e.cat.WorkingSnapshot()}, opts))
}

// Commit makes the transaction durable and visible: the buffered log
// records are appended as one group (TxnBegin/TxnCommit-framed when it has
// more than one record) and fsynced, then the working snapshot publishes —
// readers switch from the old state to the new in one atomic step, only
// after durability. On error (a durability failure) the working snapshot is
// discarded, nothing was published and the engine is dead; recovery drops
// the torn group, restoring the pre-transaction state.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	e := t.e
	defer e.gate.Release()
	e.cat.SetLogger(nil)
	if t.rec != nil {
		if err := e.wal.commitGroup(t.rec.Records(), e.cat.EncodeSnapshot); err != nil {
			e.cat.Discard()
			return err
		}
	}
	e.cat.Publish()
	e.reg.ObserveMerges(t.merges, t.rowsMerged)
	return nil
}

// Rollback abandons the transaction: the private working state is
// discarded and the published state is untouched. Nothing was written to
// the log, so rollback is free and always succeeds.
func (t *Txn) Rollback() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.e.cat.SetLogger(nil)
	t.e.cat.Discard()
	t.e.gate.Release()
	return nil
}
