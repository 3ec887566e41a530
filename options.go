package aggview

import (
	"time"
)

// Limits are per-query resource limits, overriding the engine-level
// Config limits for a single run. The zero value of each field inherits
// the engine configuration; a negative value removes the engine-level
// limit for this query.
type Limits struct {
	// Timeout bounds the query's wall time. It composes with any deadline
	// already on the context; the earlier one wins. Violations surface as
	// ErrCanceled.
	Timeout time.Duration
	// MaxRowsOut caps the rows the executor may materialize (before ORDER
	// BY/LIMIT presentation). Violations surface as ErrRowLimit.
	MaxRowsOut int64
	// MaxIOPages caps accounted page IOs — pool-miss reads plus flushes,
	// covering both scans and operator spills. Violations surface as
	// ErrIOBudget.
	MaxIOPages int64
	// OptimizerBudget caps the candidate plans costed per optimization
	// attempt. When it trips, the engine degrades Full → PushDown →
	// Traditional rather than failing the query.
	OptimizerBudget int
}

// overlay resolves per-query limits against the engine defaults: zero
// inherits, negative disables, positive overrides.
func (l Limits) overlay(base Limits) Limits {
	return Limits{
		Timeout:         pick(l.Timeout, base.Timeout),
		MaxRowsOut:      pick(l.MaxRowsOut, base.MaxRowsOut),
		MaxIOPages:      pick(l.MaxIOPages, base.MaxIOPages),
		OptimizerBudget: pick(l.OptimizerBudget, base.OptimizerBudget),
	}
}

func pick[T int | int64 | time.Duration](over, def T) T {
	switch {
	case over > 0:
		return over
	case over < 0:
		return 0
	}
	return def
}

// A QueryOption tunes a single query run; see Engine.Query. Options
// compose left to right (a later WithMode wins over an earlier one).
type QueryOption func(*rowsOptions) error

// WithMode runs the query under a specific optimizer mode instead of the
// engine's configured one. ModeDefault means the engine mode.
func WithMode(mode OptimizerMode) QueryOption {
	return func(o *rowsOptions) error {
		o.mode = mode
		return nil
	}
}

// WithParams binds values to the statement's `?` placeholders, mapped
// positionally: int/int64, float64, string and bool are accepted (ints
// coerce into float slots), plus raw types.Value. The count must match
// the statement's placeholder count exactly.
func WithParams(args ...any) QueryOption {
	return func(o *rowsOptions) error {
		vals, err := paramValues(args)
		if err != nil {
			return err
		}
		o.params = vals
		return nil
	}
}

// WithLimits applies per-query resource limits on top of the engine
// configuration. Zero fields inherit the Config value; negative fields
// disable that limit for this query.
func WithLimits(l Limits) QueryOption {
	return func(o *rowsOptions) error {
		o.limits = l
		return nil
	}
}

// WithColdCache drops the buffer pool before executing, so the measured
// Result.IO reflects a cold cache — the paper's experimental setting.
// Best-effort under concurrency: other in-flight queries refill the pool
// as they run, but this query's own accounting stays exact either way.
func WithColdCache() QueryOption {
	return func(o *rowsOptions) error {
		o.cold = true
		return nil
	}
}

// WithoutViewRewrite disables the materialized-view rewrite for this run:
// the optimizer considers base-table plans only, as if no view existed.
// This is the control setting for experiments comparing view-backed and
// base execution on the same engine (see cmd/aggbench and EXPERIMENTS.md).
func WithoutViewRewrite() QueryOption {
	return func(o *rowsOptions) error {
		o.noViewRewrite = true
		return nil
	}
}
