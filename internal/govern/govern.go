// Package govern implements per-query resource governance: cancellation,
// deadlines, page-IO budgets, output-row limits, and optimizer search
// budgets.
//
// A production optimizer bounds its own work ("Query Optimization in the
// Wild": plan-search budgets and graceful fallback are table stakes) and a
// production executor must stop promptly when the client goes away or a
// runaway query exhausts its allowance. The Governor is the single object
// every layer consults: the storage layer ticks it once per accounted page
// IO, the executor once per batch of output rows, and the optimizer once per
// costed plan. All violations surface as typed sentinel errors so callers can
// distinguish "the user canceled" from "the query was too expensive" from
// "the optimizer gave up searching".
package govern

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Sentinel errors. Every governance failure wraps exactly one of these, so
// errors.Is works across the engine boundary.
var (
	// ErrCanceled reports context cancellation or an expired deadline.
	ErrCanceled = errors.New("query canceled")
	// ErrRowLimit reports that the query produced more rows than allowed.
	ErrRowLimit = errors.New("row limit exceeded")
	// ErrIOBudget reports that the query's page-IO allowance (scans plus
	// spills) ran out.
	ErrIOBudget = errors.New("page-IO budget exceeded")
	// ErrOptimizerBudget reports that plan enumeration exceeded its search
	// budget. The engine reacts by degrading to a cheaper optimizer mode,
	// never by failing the query (the chosen-plan guarantee makes the
	// traditional plan a safe floor).
	ErrOptimizerBudget = errors.New("optimizer search budget exceeded")
)

// Limits bounds one query. A zero field means no limit.
type Limits struct {
	// MaxRowsOut caps the rows the plan's root (an ORDER BY's Sort) hands
	// out; LIMIT stops pulling first. Violations surface as ErrRowLimit.
	MaxRowsOut int64
	// MaxIOPages caps accounted page IOs — pool-miss reads plus flushes,
	// covering both scans and operator spills. Violations surface as
	// ErrIOBudget.
	MaxIOPages int64
	// OptimizerBudget caps the candidate plans the optimizer may cost per
	// optimization attempt before ErrOptimizerBudget trips.
	OptimizerBudget int
}

// Governor tracks one query's consumption against its limits. It is safe
// for concurrent use; the IO and row counters are atomic.
type Governor struct {
	ctx     context.Context
	limits  Limits
	ioPages atomic.Int64
	rowsOut atomic.Int64
	plans   atomic.Int64
}

// Init readies g, a Governor no query has used, for one query execution;
// the engine keeps it inside the value that owns the query. A nil context
// is treated as context.Background().
func (g *Governor) Init(ctx context.Context, limits Limits) {
	if ctx == nil {
		ctx = context.Background()
	}
	g.ctx, g.limits = ctx, limits
}

// Err polls cancellation: it returns a wrapped ErrCanceled when the
// governor's context is done, nil otherwise. It is cheap enough to call at
// page-IO granularity.
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return nil
}

// TickIO accounts one page access. charged marks a real page IO (a pool
// miss or a flush) counted against MaxIOPages; pool hits pass charged=false
// and only poll cancellation, so a fully cached query still honors its
// deadline at page granularity.
func (g *Governor) TickIO(charged bool) error {
	if g == nil {
		return nil
	}
	if err := g.Err(); err != nil {
		return err
	}
	if !charged {
		return nil
	}
	n := g.ioPages.Add(1)
	if g.limits.MaxIOPages > 0 && n > g.limits.MaxIOPages {
		return fmt.Errorf("%w (limit %d pages)", ErrIOBudget, g.limits.MaxIOPages)
	}
	return nil
}

// TickRows accounts n executor output rows at once, at a batch boundary.
// It polls cancellation once for the whole batch and returns the number of
// rows that fit under MaxRowsOut. When the batch
// crosses the limit the cutoff is exact: allowed reports how many of these
// n rows the caller may still emit (possibly zero) before surfacing the
// accompanying ErrRowLimit, so a batched executor emits precisely the same
// row prefix a row-at-a-time executor would.
func (g *Governor) TickRows(n int64) (allowed int64, err error) {
	if g == nil {
		return n, nil
	}
	if err := g.Err(); err != nil {
		return 0, err
	}
	total := g.rowsOut.Add(n)
	if g.limits.MaxRowsOut > 0 && total > g.limits.MaxRowsOut {
		allowed = g.limits.MaxRowsOut - (total - n)
		if allowed < 0 {
			allowed = 0
		}
		return allowed, fmt.Errorf("%w (limit %d rows)", ErrRowLimit, g.limits.MaxRowsOut)
	}
	return n, nil
}

// TickPlan accounts one costed candidate plan in the optimizer.
func (g *Governor) TickPlan() error {
	if g == nil {
		return nil
	}
	if err := g.Err(); err != nil {
		return err
	}
	n := g.plans.Add(1)
	if g.limits.OptimizerBudget > 0 && n > int64(g.limits.OptimizerBudget) {
		return fmt.Errorf("%w (limit %d plans)", ErrOptimizerBudget, g.limits.OptimizerBudget)
	}
	return nil
}

// ResetPlans zeroes the optimizer-plan counter. The engine's degradation
// ladder calls it between attempts so each cheaper mode gets the full
// search budget.
func (g *Governor) ResetPlans() {
	if g == nil {
		return
	}
	g.plans.Store(0)
}
