package aggview

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aggview/internal/catalog"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/txn"
	"aggview/internal/wal"
)

// Durable mode. An engine opened with Config.DataDir set writes every
// catalog/data mutation to a write-ahead log before acknowledging it, takes
// periodic checkpoint snapshots, and recovers its exact state — schemas,
// heap page layout, statistics, and the catalog version that drives
// plan-cache invalidation — when reopened after a crash.
//
// The protocol is redo-only and rides on the engine's single-writer gate:
// a write batch mutates a private copy-on-write catalog snapshot, its log
// records accumulate in a txn.Recorder, and commit appends the whole group,
// fsyncs, and only then publishes the snapshot to readers — so no reader
// ever observes state that is not durable, and the log's LSN order is the
// commit order. Multi-record groups are framed with TxnBegin/TxnCommit so
// recovery replays them all-or-nothing; a rollback writes nothing at all.
// If any log write fails, the engine marks itself dead: the in-memory state
// may then be ahead of the disk, so every subsequent operation is refused
// with ErrEngineDead until the process reopens the directory and recovers.

var (
	// ErrCorrupt is wrapped by OpenDurable when recovery finds unrecoverable
	// log or checkpoint damage: a checksum failure or short frame in any
	// segment but the last (in the last segment it is a torn tail — end of
	// log — and is truncated), an LSN discontinuity, a damaged checkpoint,
	// or a CRC-valid record that fails to decode.
	ErrCorrupt = wal.ErrCorrupt
	// ErrEngineDead is wrapped by every operation after a durability write
	// has failed. The engine's memory may be ahead of its log; reopen the
	// data directory to recover to the last acknowledged state.
	ErrEngineDead = errors.New("aggview: engine failed a durability write; reopen the data directory to recover")
)

// DefaultCheckpointBytes is the default auto-checkpoint threshold: a
// checkpoint is taken when this many log bytes accumulate since the last.
const DefaultCheckpointBytes = 4 << 20

// walState is the durable engine's logging half: the commit sink for the
// write batches the engine runs behind its writer gate. The wal.Log itself
// is not safe for concurrent use, so every log touch goes through mu; the
// death flag is a lock-free atomic so read paths can check liveness without
// contending with a commit in progress.
type walState struct {
	mu  sync.Mutex
	log *wal.Log

	// checkpointBytes is the auto-checkpoint threshold (log bytes since the
	// last checkpoint).
	checkpointBytes int64

	// nextTxn numbers the TxnBegin/TxnCommit frames. Purely diagnostic —
	// recovery matches frames positionally, not by ID — but stable IDs make
	// log dumps legible.
	nextTxn int64

	// dead is set (once) when a durability write fails; every later
	// operation returns its cause wrapped in ErrEngineDead.
	dead atomic.Pointer[walDeath]
}

type walDeath struct{ cause error }

// alive returns nil while the engine can accept writes, or the terminal
// ErrEngineDead (annotated with the original failure) after one failed.
func (w *walState) alive() error {
	if d := w.dead.Load(); d != nil {
		return fmt.Errorf("%w (cause: %v)", ErrEngineDead, d.cause)
	}
	return nil
}

// fail marks the engine dead and returns the cause: the operation that
// hit the failure reports the real error (a crash sweep asserts on it);
// every later operation gets ErrEngineDead from alive. Idempotent: only
// the first cause is kept.
func (w *walState) fail(cause error) error {
	w.dead.CompareAndSwap(nil, &walDeath{cause: cause})
	return cause
}

// commitGroup makes one write batch durable: append every buffered record,
// framed by TxnBegin/TxnCommit when the group has more than one record
// (single-record groups are self-atomic — the log's torn-tail truncation
// already gives them all-or-nothing semantics — and stay unframed so the
// on-disk format is backward compatible), then fsync. On success it may
// take an auto-checkpoint, encoding the catalog state via snap (the
// caller's working snapshot — the state the group produces). Any failure
// kills the engine: the caller's in-memory state is ahead of the log and
// must not be published or trusted.
//
// An empty group is a no-op: a write statement that touched nothing (e.g.
// ANALYZE of an empty catalog) costs no fsync.
func (w *walState) commitGroup(recs []txn.LoggedRecord, snap func() []byte) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.alive(); err != nil {
		return err
	}
	framed := len(recs) > 1
	if framed {
		w.nextTxn++
		if _, err := w.log.Append(recs[0].Version, wal.TxnBegin{ID: w.nextTxn}); err != nil {
			return w.fail(err)
		}
	}
	for _, lr := range recs {
		if _, err := w.log.Append(lr.Version, lr.Rec); err != nil {
			return w.fail(err)
		}
	}
	if framed {
		if _, err := w.log.Append(recs[len(recs)-1].Version, wal.TxnCommit{ID: w.nextTxn}); err != nil {
			return w.fail(err)
		}
	}
	if err := w.log.Sync(); err != nil {
		return w.fail(err)
	}
	if w.checkpointBytes > 0 && w.log.SizeSinceCheckpoint() >= w.checkpointBytes {
		// Auto-checkpoint inside the commit: snap() encodes the state the
		// just-committed group produced (the caller's working snapshot), so
		// the checkpoint can never be ahead of or behind the log position it
		// claims to cover. A checkpoint failure is terminal like any other
		// durability failure: the log may have rotated underneath a
		// half-written checkpoint.
		if err := w.log.WriteCheckpoint(snap()); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// OpenDurable opens (or creates) a durable engine on dir. Recovery loads
// the latest checkpoint snapshot, then replays the committed log suffix:
// records framed by TxnBegin/TxnCommit apply all-or-nothing (a torn group
// with no TxnCommit is discarded entirely), bare records apply directly
// (the pre-transaction format, and the format still used for single-record
// statements). Replay is all recovery does:
// every statement that logs more than one record — CREATE MATERIALIZED VIEW,
// an INSERT with view maintenance, a refresh — is one framed group, so the
// replayed state is statement-consistent (no orphaned backing table, no
// view behind its base table) and nothing is appended to the log on open.
func OpenDurable(cfg Config) (*Engine, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("aggview: OpenDurable requires Config.DataDir")
	}
	cfg = resolveConfig(cfg)
	log, rec, err := wal.Open(cfg.DataDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	store := storage.NewStore(cfg.PoolPages)

	var cat *catalog.Catalog
	if rec.Snapshot != nil {
		cat, err = catalog.DecodeSnapshot(store, rec.Snapshot)
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("%w: checkpoint: %v", ErrCorrupt, err)
		}
	} else {
		cat = catalog.New(store)
	}

	// Replay the committed suffix. Records between a TxnBegin and its
	// TxnCommit buffer in pending and apply only when the commit frame
	// arrives; everything else applies immediately. A group whose commit
	// frame never made it to disk is exactly the batch the crashed engine
	// never acknowledged — dropping it wholesale is what makes BEGIN …
	// crash-without-COMMIT recover the pre-transaction state.
	applied := false
	var lastVersion int64
	if len(rec.Entries) > 0 {
		cat.BeginWrite()
		var pending []wal.Entry
		inTxn := false
		for _, ent := range rec.Entries {
			switch ent.Rec.(type) {
			case wal.TxnBegin:
				pending = pending[:0]
				inTxn = true
			case wal.TxnCommit:
				for _, p := range pending {
					if err := applyRecord(cat, store, p.Rec); err != nil {
						cat.Discard()
						log.Close()
						return nil, fmt.Errorf("%w: replay lsn %d: %v", ErrCorrupt, p.LSN, err)
					}
				}
				pending = pending[:0]
				inTxn = false
				lastVersion = ent.Version
				applied = true
			default:
				if inTxn {
					pending = append(pending, ent)
					continue
				}
				if err := applyRecord(cat, store, ent.Rec); err != nil {
					cat.Discard()
					log.Close()
					return nil, fmt.Errorf("%w: replay lsn %d: %v", ErrCorrupt, ent.LSN, err)
				}
				lastVersion = ent.Version
				applied = true
			}
		}
		if applied {
			cat.RestoreVersion(lastVersion)
		}
		cat.Publish()
	}

	e := newEngine(store, cat, cfg)
	e.wal = &walState{log: log, checkpointBytes: cfg.CheckpointBytes}
	return e, nil
}

// applyRecord redoes one logged mutation against the catalog. The catalog
// Logger is not installed during replay, so nothing is re-logged.
func applyRecord(cat *catalog.Catalog, store *storage.Store, rec wal.Record) error {
	switch r := rec.(type) {
	case wal.CreateTable:
		cols := make([]schema.Column, len(r.Cols))
		for i, c := range r.Cols {
			cols[i] = schema.Column{ID: schema.ColID{Name: c.Name}, Type: c.Type}
		}
		var fks []schema.ForeignKey
		for _, fk := range r.ForeignKeys {
			fks = append(fks, schema.ForeignKey{Cols: fk.Cols, RefTable: fk.RefTable, RefCols: fk.RefCols})
		}
		_, err := cat.CreateTable(r.Name, cols, r.PrimaryKey, fks)
		return err
	case wal.CreateView:
		_, err := cat.CreateView(r.Name, r.Cols, r.SQL)
		return err
	case wal.DropTable:
		return cat.DropTable(r.Name)
	case wal.Insert:
		tbl, ok := cat.Table(r.Table)
		if !ok {
			return fmt.Errorf("insert into unknown table %q", r.Table)
		}
		for _, row := range r.Rows {
			if err := cat.Insert(tbl, row); err != nil {
				return err
			}
		}
		return nil
	case wal.Analyze:
		if tbl, ok := cat.Table(r.Table); ok {
			return cat.Analyze(tbl)
		}
		return fmt.Errorf("analyze of unknown table %q", r.Table)
	case wal.CreateMatView:
		_, err := cat.CreateMatView(r.Name, r.SQL, r.Backing, r.BaseTables)
		return err
	case wal.DropMatView:
		return cat.DropMatView(r.Name)
	default:
		return fmt.Errorf("unknown record kind %v", rec.Kind())
	}
}

// walAlive returns nil on an in-memory engine, or the durable engine's
// liveness (lock-free: a read path never contends with a commit).
func (e *Engine) walAlive() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.alive()
}

// Checkpoint forces a checkpoint snapshot now, regardless of the size
// threshold. It acquires the writer gate: a checkpoint of a half-applied
// write batch would persist unacknowledged state.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return fmt.Errorf("aggview: Checkpoint requires a durable engine (set Config.DataDir)")
	}
	if err := e.gate.Acquire(context.Background()); err != nil {
		return err
	}
	defer e.gate.Release()
	e.wal.mu.Lock()
	defer e.wal.mu.Unlock()
	if err := e.wal.alive(); err != nil {
		return err
	}
	if err := e.wal.log.WriteCheckpoint(e.cat.Snapshot().Encode()); err != nil {
		return e.wal.fail(err)
	}
	return nil
}

// Close flushes and closes the write-ahead log. The engine must not be
// used afterwards. Close on an in-memory engine is a no-op.
func (e *Engine) Close() error {
	if e.wal == nil {
		return nil
	}
	if err := e.gate.Acquire(context.Background()); err != nil {
		return err
	}
	defer e.gate.Release()
	e.wal.mu.Lock()
	defer e.wal.mu.Unlock()
	// A dead engine still closes its file handles; the log contents are
	// whatever the failure left behind.
	return e.wal.log.Close()
}

// WALWrites reports the number of physical log writes performed, for
// sizing crash sweeps.
func (e *Engine) WALWrites() int64 {
	if e.wal == nil {
		return 0
	}
	e.wal.mu.Lock()
	defer e.wal.mu.Unlock()
	return e.wal.log.Writes()
}
