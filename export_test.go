package aggview

import (
	"fmt"
	"sort"
	"testing"

	"aggview/internal/exec"
	"aggview/internal/types"
)

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
// ordered rows again by the bound ORDER BY keys: Naive's Sort shares
// sortKeys.compare with the executor, so this re-sort is the independent
// check of each key's direction.
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
