package aggview

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"aggview/internal/exec"
	"aggview/internal/storage"
	"aggview/internal/types"
	"aggview/internal/wal"
)

// The fault and crash hooks below are test-only: the chaos, crash and
// snapshot suites drive them.

// ErrInjected is the base error of storage faults armed via InjectFault.
var ErrInjected = storage.ErrInjected

// ErrCrashed is the injected crash-point error; see InjectWALCrash.
var ErrCrashed = wal.ErrCrashed

// FaultPlan configures deterministic or probabilistic storage fault
// injection; see InjectFault.
type FaultPlan = storage.FaultPlan

// CrashPlan configures deterministic crash injection on the write-ahead
// log; see InjectWALCrash.
type CrashPlan = wal.CrashPlan

// InjectFault arms storage-level fault injection for subsequent queries:
// the chosen accounted page IO (FailAt, 0-based) or a seeded random subset
// (Prob/Seed) fails with an error wrapping ErrInjected. The chaos-test
// harness sweeps FailAt across every IO of a query to prove that a disk
// error at any moment yields a clean error and no leaked spill files.
func (e *Engine) InjectFault(p FaultPlan) { e.store.InjectFault(p) }

// ClearFault disarms fault injection.
func (e *Engine) ClearFault() { e.store.ClearFault() }

// FaultIOCount reports the accounted page IOs observed since InjectFault,
// for sizing deterministic fault sweeps.
func (e *Engine) FaultIOCount() int64 { return e.store.FaultIOCount() }

// LiveTempFiles returns the names of live operator spill files. It must be
// empty between queries — anything else is a resource leak (asserted by the
// chaos tests after every injected failure).
func (e *Engine) LiveTempFiles() []string { return e.store.LiveTempFiles() }

// InjectWALCrash arms deterministic crash injection on the log: the Nth
// physical write (and everything after it) fails, optionally leaving a
// torn prefix. The crash-sweep harness uses this to prove recovery at
// every write boundary. Takes only the log mutex — not the writer gate —
// so a sweep can arm the crash while a transaction is open.
func (e *Engine) InjectWALCrash(p *CrashPlan) {
	if e.wal == nil {
		return
	}
	e.wal.mu.Lock()
	defer e.wal.mu.Unlock()
	e.wal.log.InjectCrash(p)
}

// Durable reports whether the engine persists its state (opened with
// Config.DataDir).
func (e *Engine) Durable() bool { return e.wal != nil }

// StateFingerprint returns a stable hash of the engine's published logical
// state: schemas, views, matviews, table contents (page layout included),
// statistics, and the catalog version. Two engines with equal fingerprints
// are indistinguishable to every query. Lock-free: it encodes the immutable
// published snapshot, so it never blocks — and is never blocked by —
// writers.
func (e *Engine) StateFingerprint() string {
	sum := sha256.Sum256(e.cat.Snapshot().Encode())
	return hex.EncodeToString(sum[:])
}

// DropCaches empties the buffer pool, so the next query runs cold. It does
// not wait for in-flight queries: the pool tracks page identity only, so a
// running query's results stay correct and only its hit/miss accounting
// shifts.
func (e *Engine) DropCaches() { e.store.ForceDropCaches() }

// SetupEmpDept exposes the internal tests' emp/dept engine to the external
// test package.
func SetupEmpDept(t *testing.T) *Engine { return setupEmpDept(t) }

// CatalogVersion is the catalog version of the current published snapshot
// (bumped by every committed DDL, INSERT and ANALYZE; the version that
// drives plan-cache invalidation).
func (e *Engine) CatalogVersion() int64 { return e.cat.Snapshot().Version() }

// PlanCacheLen reports how many compiled plans the engine currently
// retains.
func (e *Engine) PlanCacheLen() int {
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	return e.cache.lru.Len()
}

// StmtOracle evaluates the plan a hit of s runs — the frozen plan in its
// plan-cache entry, whose root Sort carries any ORDER BY — with exec.Naive
// under args, checked and coerced as a run checks them, and presents the
// rows as a run does: LIMIT, Go values. It stable-sorts Naive's already
// ordered rows again by the bound ORDER BY keys, an independent check of
// each key's direction beside Naive's own row comparison.
func StmtOracle(s *Stmt, args ...any) ([][]any, error) {
	vals, err := paramValues(args)
	if err != nil {
		return nil, err
	}
	cp, status := s.e.cache.get(s.key, s.e.cat.Snapshot().Version())
	if cp == nil {
		return nil, fmt.Errorf("statement has no current cached plan (%s)", status)
	}
	params, err := checkParams(cp, vals)
	if err != nil {
		return nil, err
	}
	res, err := exec.Naive(s.e.store, cp.info.root, params)
	if err != nil {
		return nil, err
	}
	raw := res.Rows
	sort.SliceStable(raw, func(i, j int) bool {
		for _, k := range cp.OrderBy {
			if c := types.Compare(raw[i][k.Col], raw[j][k.Col]); c != 0 {
				return (c < 0) != k.Desc
			}
		}
		return false
	})
	if cp.Limit >= 0 && len(raw) > cp.Limit {
		raw = raw[:cp.Limit]
	}
	out := make([][]any, len(raw))
	for i, row := range raw {
		out[i] = rowToGo(row)
	}
	return out, nil
}

// rowToGo converts an executor row to native Go values.
func rowToGo(row types.Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		out[i] = valueToGo(v)
	}
	return out
}
