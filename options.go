package aggview

import "aggview/internal/govern"

// Limits are one run's resource limits, set per call with WithLimits; a
// zero field means no limit. Query, QueryRows, Explain, ExplainAnalyze and
// Txn.Query take them. ExecScript's statements and prepared-statement runs
// are bounded by their context only (Exec takes none), and so is every
// run's wall time: a deadline belongs to the caller's ctx.
//
// MaxRowsOut and MaxIOPages bound execution, so Explain, which executes
// nothing, never trips them. OptimizerBudget bounds a search, so it cannot
// trip on a plan-cache hit: a hit runs no search, reports CacheStatus "hit"
// and is not degraded.
type Limits = govern.Limits

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

// WithLimits bounds this run's resources; see Limits.
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
