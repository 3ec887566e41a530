package aggview

import (
	"context"
	"fmt"

	"aggview/internal/sql"
	"aggview/internal/types"
)

// Stmt is a prepared SELECT: parsed, validated, and compiled once, then
// executed any number of times with different `?` parameter values. The
// compiled plan lives in the engine's plan cache under the statement's
// token-stream key and optimizer mode; executions reuse it until a DDL,
// INSERT or ANALYZE bumps the catalog version, at which point the next
// execution transparently recompiles.
//
// A Stmt is immutable and safe for concurrent use: any number of
// goroutines may call QueryContext/QueryRows on the same Stmt at once, each run
// getting its own storage session (exact per-query IO attribution), its
// own governor, and its own parameter vector.
type Stmt struct {
	e   *Engine
	src string  // original SQL, parsed whenever the plan must be (re)compiled
	key planKey // token-stream key + mode: the plan's cache identity
	n   int     // parameter count (syntactic, stable across recompiles)
}

// Prepare parses, binds and optimizes a SELECT under the engine's
// optimizer mode, caching the compiled plan for reuse (to prepare under
// another mode, prepare on a WithConfig derivative). `?` placeholders in the
// statement become positional parameters supplied to QueryContext/QueryRows;
// the binder infers each slot's type from the comparison it appears in and
// execution enforces it. Errors in the statement surface here rather than at
// execution time.
func (e *Engine) Prepare(src string) (st *Stmt, err error) {
	defer recoverToError(&err, src)
	// The key function ad-hoc runs use, so the two share cache entries.
	text, err := sql.CacheKey(src)
	if err != nil {
		return nil, err
	}
	s := &Stmt{e: e, src: src, key: planKey{text: text, mode: e.cfg.Mode}}
	// Compile eagerly — a pipeline run that stops before execute: parse,
	// bind and optimize errors belong to Prepare, and the first execution
	// should already find the plan cached. The compilation pins the
	// published snapshot current now, like any read.
	rows, err := e.run(context.Background(), src, nil, rowsOptions{stmt: s, planOnly: true})
	if err != nil {
		return nil, err
	}
	s.n = rows.query.cp.NumParams
	return s, nil
}

// Text returns the statement's original SQL.
func (s *Stmt) Text() string { return s.src }

// NumParams returns the number of `?` placeholders the statement takes.
func (s *Stmt) NumParams() int { return s.n }

// QueryContext executes the prepared statement with the given parameter
// values and materializes the result. Arguments map positionally onto the
// statement's `?` placeholders: int/int64, float64, string and bool are
// accepted (ints coerce into float slots). Cancellation and deadlines abort
// the run at page-IO granularity with ErrCanceled; ctx is the only bound on
// a prepared run.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (res *Result, err error) {
	defer recoverToError(&err, s.src)
	return materialize(s.run(ctx, args, rowsOptions{}))
}

// QueryRows executes the prepared statement and returns a streaming
// iterator. The caller must Close the Rows (or drain it).
func (s *Stmt) QueryRows(ctx context.Context, args ...any) (r *Rows, err error) {
	defer recoverToError(&err, s.src)
	return s.run(ctx, args, rowsOptions{})
}

// ExplainAnalyze executes the prepared statement cold (buffer pool
// dropped) and returns the annotated plan, including the plan-cache
// provenance of this run ("hit" when the cached plan was reused).
func (s *Stmt) ExplainAnalyze(ctx context.Context, args ...any) (a *AnalyzeInfo, err error) {
	defer recoverToError(&err, s.src)
	return analyzeRows(s.run(ctx, args, rowsOptions{cold: true, trace: true}))
}

// run converts the arguments and enters the pipeline flagged as prepared,
// so the plan is resolved under the statement's fixed key.
func (s *Stmt) run(ctx context.Context, args []any, opt rowsOptions) (*Rows, error) {
	vals, err := paramValues(args)
	if err != nil {
		return nil, err
	}
	opt.stmt, opt.params = s, vals
	return s.e.run(ctx, s.src, nil, opt)
}

// paramValues converts Go arguments to engine values.
func paramValues(args []any) ([]types.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	vals := make([]types.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int:
			vals[i] = types.NewInt(int64(v))
		case int32:
			vals[i] = types.NewInt(int64(v))
		case int64:
			vals[i] = types.NewInt(v)
		case float32:
			vals[i] = types.NewFloat(float64(v))
		case float64:
			vals[i] = types.NewFloat(v)
		case string:
			vals[i] = types.NewString(v)
		case bool:
			vals[i] = types.NewBool(v)
		case types.Value:
			vals[i] = v
		default:
			return nil, fmt.Errorf("aggview: parameter ?%d: unsupported argument type %T", i+1, a)
		}
	}
	return vals, nil
}
