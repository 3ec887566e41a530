package aggview

import (
	"errors"
	"fmt"

	"aggview/internal/catalog"
	"aggview/internal/core"
	"aggview/internal/govern"
	"aggview/internal/obs"
	"aggview/internal/qblock"
	"aggview/internal/storage"
)

// Typed sentinel errors for resource-governance failures. Every violation
// returned by the engine wraps exactly one of these; test with errors.Is.
var (
	// ErrCanceled reports that the caller's context was canceled or its
	// deadline expired.
	ErrCanceled = govern.ErrCanceled
	// ErrRowLimit reports that a query produced more rows than its
	// Limits.MaxRowsOut allows.
	ErrRowLimit = govern.ErrRowLimit
	// ErrIOBudget reports that a query exceeded its Limits.MaxIOPages
	// accounted page IOs (scans plus operator spills).
	ErrIOBudget = govern.ErrIOBudget
	// ErrOptimizerBudget reports that plan enumeration exceeded
	// Limits.OptimizerBudget. Callers never see it: the engine degrades to a
	// cheaper mode instead of failing.
	ErrOptimizerBudget = govern.ErrOptimizerBudget
	// ErrInternal wraps a recovered internal panic; the error text carries
	// the statement being executed. A query returning ErrInternal leaves
	// the engine usable.
	ErrInternal = errors.New("internal error")
)

// recoverToError converts a panic into an error wrapping ErrInternal and
// the statement text. It is installed at every public query entry point,
// the last line of defense behind the returned-error paths: user input must
// never crash the process.
func recoverToError(err *error, src string) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("aggview: %w: %v (executing %q)", ErrInternal, p, src)
	}
}

// ioHook adapts a run's governor and collector to the storage layer's IO
// hook, installed on the query's storage session (so it
// observes only this query's page accesses, even with concurrent queries
// on the same store): charged IOs (pool misses and flushes) count against
// the page budget, pool hits only poll cancellation. The governor
// ticks before the collector records, so an aborted access (budget trip,
// cancellation — and injected faults, which fire before the hook) is never
// counted by either side: per-operator sums stay exactly equal to the
// store's IOStats delta even on error paths. The indirection keeps storage
// free of govern and obs imports.
func ioHook(g *govern.Governor, col *obs.Collector) storage.IOHook {
	return func(op storage.IOOp, temp bool) error {
		if err := g.TickIO(op != storage.OpHit); err != nil {
			return err
		}
		col.RecordIO(ioKind(op), temp)
		return nil
	}
}

// ioKind maps a storage IO op to its obs attribution kind.
func ioKind(op storage.IOOp) obs.IOKind {
	switch op {
	case storage.OpRead:
		return obs.IORead
	case storage.OpWrite:
		return obs.IOWrite
	default:
		return obs.IOHit
	}
}

// ladderModes returns the degradation ladder starting at the requested
// mode. The paper's guarantee — the chosen plan is never worse than the
// traditional plan — makes each cheaper mode a safe substitute, so the
// engine can always trade search effort for plan quality instead of
// failing the query.
func ladderModes(m OptimizerMode) []OptimizerMode {
	switch m {
	case Full:
		return []OptimizerMode{Full, PushDown, Traditional}
	case PushDown:
		return []OptimizerMode{PushDown, Traditional}
	default:
		return []OptimizerMode{Traditional}
	}
}

// optimizeLadder optimizes under the governor's search budget, degrading
// Full → PushDown → Traditional when the budget trips. Each rung gets a
// fresh plan budget; the final rung runs with the budget disabled (but
// still polls cancellation), so a finite ladder always produces a plan.
// The returned mode is the rung that succeeded; the plan's SearchStats
// records how many rungs were skipped. cat is the catalog state the query
// was bound against (the run's pinned snapshot).
func (e *Engine) optimizeLadder(cat catalog.Reader, q *qblock.Query, mode OptimizerMode, noViewRewrite bool, gov *govern.Governor, trace *core.SearchTrace) (*core.Plan, OptimizerMode, error) {
	modes := ladderModes(mode)
	opts := core.DefaultOptions()
	opts.PoolPages = e.cfg.PoolPages
	opts.NoHashJoin = e.cfg.SystemRJoins
	opts.Trace = trace
	// Materialized-view candidates are mode-independent (they bypass the
	// join search entirely), so one rewrite pass serves every rung.
	if !noViewRewrite {
		opts.ViewPlans = e.viewPlans(cat, q)
	}
	for i := 0; ; i++ {
		last := i == len(modes)-1
		opts.Mode, opts.Tick = modes[i], gov.TickPlan
		if last {
			opts.Tick = gov.Err // cancellation only: the floor must succeed
		}
		plan, err := core.Optimize(q, opts)
		if !last && errors.Is(err, govern.ErrOptimizerBudget) {
			trace.Event("degrade", 0, "mode %s exceeded the plan budget; retrying as %s", modes[i], modes[i+1])
			gov.ResetPlans()
			continue
		}
		if err != nil {
			return nil, modes[i], err
		}
		plan.Stats.Degradations = i // every rung before this one degraded
		return plan, modes[i], nil
	}
}
