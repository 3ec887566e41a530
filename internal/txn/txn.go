// Package txn provides the engine's transaction plumbing: single-writer
// admission control and the deferred write-ahead-log recorder.
//
// The engine's MVCC design splits a write into three phases — admit (one
// writer at a time), mutate (a private copy-on-write catalog snapshot),
// and commit (make the mutations durable, then publish the snapshot). This
// package owns the first phase and the bookkeeping for the third: the Gate
// serializes writers without ever blocking readers, and the Recorder
// buffers the log records a write batch produces so nothing touches the
// log until commit — which is what makes ROLLBACK free (discard the
// buffer) and crash atomicity exact (an uncommitted transaction has no
// on-disk footprint at all).
package txn

import (
	"context"

	"aggview/internal/schema"
	"aggview/internal/types"
	"aggview/internal/wal"
)

// Gate is the engine's single-writer admission control: a context-aware
// mutex held for the duration of a write statement or an explicit
// transaction. Readers never touch it — they pin a published catalog
// snapshot instead — so the gate orders writers against each other only.
type Gate struct {
	ch chan struct{}
}

// NewGate returns an open gate.
func NewGate() *Gate { return &Gate{ch: make(chan struct{}, 1)} }

// Acquire blocks until the gate is free or the context is done. It returns
// ctx.Err() on cancellation, in which case the gate was not acquired.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.ch <- struct{}{}:
		return nil
	default:
	}
	select {
	case g.ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release opens the gate. It must pair with a successful Acquire.
func (g *Gate) Release() { <-g.ch }

// batchRows caps rows per buffered Insert record: consecutive inserts into
// one table coalesce up to this bound, so a bulk load commits a handful of
// records rather than one per row, while no single record grows without
// limit.
const batchRows = 4096

// LoggedRecord is one buffered mutation: the wal record and the catalog
// version its original application produced (persisted so a recovered
// engine continues the version sequence that drives plan-cache
// invalidation).
type LoggedRecord struct {
	Version int64
	Rec     wal.Record
}

// Recorder implements catalog.Logger by buffering records in memory
// instead of appending to the log. The durable engine installs one per
// write batch; at commit the buffered group is framed, appended and synced
// in one shot (see the engine's commit path). Hooks never fail — there is
// no IO to fail — so a mutation that succeeded in memory always records,
// and durability errors surface exactly once, at commit.
type Recorder struct {
	version func() int64 // the catalog's working version, read per hook

	recs []LoggedRecord

	// Pending insert batch: consecutive Insert hooks for one table
	// accumulate here and fold into a single record.
	pendTable   string
	pendRows    []types.Row
	pendVersion int64
}

// NewRecorder returns a recorder reading the catalog version through
// version (called after each mutation has bumped it).
func NewRecorder(version func() int64) *Recorder {
	return &Recorder{version: version}
}

// Records flushes the pending insert batch and returns the buffered group
// in mutation order. The recorder is spent afterwards.
func (r *Recorder) Records() []LoggedRecord {
	r.flushInserts()
	return r.recs
}

func (r *Recorder) add(rec wal.Record) {
	r.flushInserts()
	r.recs = append(r.recs, LoggedRecord{Version: r.version(), Rec: rec})
}

func (r *Recorder) flushInserts() {
	if len(r.pendRows) == 0 {
		return
	}
	rec := wal.Insert{Table: r.pendTable, Rows: r.pendRows}
	r.recs = append(r.recs, LoggedRecord{Version: r.pendVersion, Rec: rec})
	r.pendTable, r.pendRows = "", nil
}

// catalog.Logger implementation. The signatures mirror catalog.Logger
// structurally; the catalog package is deliberately not imported, so the
// dependency arrow stays catalog → (engine) → txn-free.

// CreateTable records a CREATE TABLE.
func (r *Recorder) CreateTable(name string, cols []schema.Column, primaryKey []string, fks []schema.ForeignKey) error {
	rec := wal.CreateTable{Name: name, PrimaryKey: primaryKey}
	rec.Cols = make([]wal.ColumnDef, len(cols))
	for i, c := range cols {
		rec.Cols[i] = wal.ColumnDef{Name: c.ID.Name, Type: c.Type}
	}
	for _, fk := range fks {
		rec.ForeignKeys = append(rec.ForeignKeys, wal.ForeignKeyDef{
			Cols: fk.Cols, RefTable: fk.RefTable, RefCols: fk.RefCols,
		})
	}
	r.add(rec)
	return nil
}

// CreateView records a CREATE VIEW.
func (r *Recorder) CreateView(name string, cols []string, sql string) error {
	r.add(wal.CreateView{Name: name, Cols: cols, SQL: sql})
	return nil
}

// CreateMatView records the registration of a materialized view.
func (r *Recorder) CreateMatView(name, sql, backing string, baseTables []string) error {
	r.add(wal.CreateMatView{Name: name, SQL: sql, Backing: backing, BaseTables: baseTables})
	return nil
}

// DropTable records a DROP TABLE.
func (r *Recorder) DropTable(name string) error {
	r.add(wal.DropTable{Name: name})
	return nil
}

// DropMatView records a DROP MATERIALIZED VIEW.
func (r *Recorder) DropMatView(name string) error {
	r.add(wal.DropMatView{Name: name})
	return nil
}

// Insert accumulates a row into the pending batch for table, flushing when
// the batch bound is reached or the table changes.
func (r *Recorder) Insert(table string, row types.Row) error {
	if r.pendTable != "" && r.pendTable != table {
		r.flushInserts()
	}
	r.pendTable = table
	r.pendRows = append(r.pendRows, row)
	r.pendVersion = r.version()
	if len(r.pendRows) >= batchRows {
		r.flushInserts()
	}
	return nil
}

// Analyze records a statistics refresh.
func (r *Recorder) Analyze(table string) error {
	r.add(wal.Analyze{Table: table})
	return nil
}
