package aggview

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aggview/internal/catalog"
	"aggview/internal/exec"
	"aggview/internal/govern"
	"aggview/internal/obs"
	"aggview/internal/qblock"
	"aggview/internal/sql"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// Rows is a streaming query result: a cursor over the executing plan.
// Iterate with Next/Scan, check Err after the loop, and always Close (it is
// idempotent and also runs automatically when Next exhausts the stream).
// Resource governance applies per row pulled: the context's cancellation
// and deadline, and the WithLimits row and page budgets, abort a partially
// consumed stream with the same sentinel errors the materializing APIs
// return.
//
// Rows flow straight from the executor; an ORDER BY is the plan's root Sort,
// so a sorted result streams too. A LIMIT stops execution as soon as enough
// rows were pulled.
type Rows struct {
	query *queryRun

	cur     *exec.Cursor
	current []any
	vals    []any // where the next rows' values go (see Value)
	err     error
	done    bool

	// closeMu serializes teardown so that Close may race itself (a
	// caller's defer against a watchdog goroutine). Next/Scan stay
	// single-goroutine per the type's contract.
	closeMu sync.Mutex
}

// queryRun is the query pipeline: the one value every SELECT-shaped
// statement becomes, whichever door it came through (ad-hoc, prepared,
// transaction, EXPLAIN [ANALYZE], materialized-view maintenance). Engine.run
// drives it through its stages —
//
//	resolve  statement text → plan key → compiledPlan from the cache
//	         (resolvePlan); a hit goes straight to execute
//	compile  only when resolve found no current plan: parse (parseSelect;
//	         doors holding a parsed statement or a bound block skip it),
//	         bind over the pinned snapshot, optimize, freeze, compile for
//	         the executor (compile)
//	execute  parameters, storage session, cursor (execute)
//	finish   teardown and metrics publication, exactly once (finish)
//
// — and owns everything private to the run. The compiled plan it points at
// is shared and immutable, and everything that depends only on it (or only
// on the statement text) was computed when it was compiled: a run of a
// cached plan does per-run work only.
type queryRun struct {
	engine *Engine
	src    string      // statement text: metrics label, cache-key and parse source
	opt    rowsOptions // how this door entered the pipeline
	// snap is the catalog state the run binds, plans and executes against:
	// the published snapshot current at open, or a writer's working state.
	snap     *catalog.Snapshot
	gov      *govern.Governor
	cp       *compiledPlan
	col      *obs.Collector
	planInfo *PlanInfo
	// sess is the query's storage session: every page the
	// executor touches is charged to it (and only it), so qr.io is exact
	// even when other queries run concurrently. Nil until execution opens.
	sess *storage.Session
	// start is when the door began work on the statement, before any key or
	// parse step; execStart is when the execute stage began (zero if it
	// never did).
	start, execStart time.Time
	rowsOut          int64
	io               IOStats

	// once makes finish idempotent and race-free: Rows.Close racing a
	// governor timeout (or any double teardown) publishes metrics and
	// releases the engine exactly once. done flags completion for readers
	// polling from other code paths (Rows.IO).
	once sync.Once
	done atomic.Bool

	// Phase wall times, fixed at finish: optimizeDur comes from the
	// collector's "optimize" span (bind + optimize; absent on a cache hit),
	// executeDur runs from execStart, and totalDur from start — so it also
	// covers the key, cache and parse steps, which belong to neither phase.
	optimizeDur time.Duration
	executeDur  time.Duration
	totalDur    time.Duration
}

// finish is the pipeline's last stage and runs exactly once: it fixes the
// IO totals and the phase times and — unless the run was plan-only or view
// maintenance, which are not query executions — publishes the per-query
// rollup to the engine's metrics registry (and sink). Safe to call
// repeatedly and from racing goroutines.
func (qr *queryRun) finish(execErr error) {
	qr.once.Do(func() {
		if qr.sess != nil {
			qr.io = qr.sess.Stats()
		}

		now := time.Now()
		qr.totalDur = now.Sub(qr.start)
		qr.optimizeDur = qr.col.SpanDur("optimize")
		if !qr.execStart.IsZero() {
			qr.executeDur = now.Sub(qr.execStart)
		}
		qr.done.Store(true)
		if qr.opt.planOnly || qr.opt.block != nil {
			return
		}

		qm := obs.QueryMetrics{
			Statement: qr.src,
			Err:       errClass(execErr),
			Rows:      qr.rowsOut,
			Reads:     qr.io.Reads,
			Writes:    qr.io.Writes,
			Hits:      qr.io.Hits,
			Optimize:  qr.optimizeDur,
			Execute:   qr.executeDur,
			Total:     qr.totalDur,
		}
		tot := qr.col.Totals()
		qm.SpillReads, qm.SpillWrites = tot.SpillReads, tot.SpillWrites
		if qr.planInfo != nil {
			qm.Mode = qr.planInfo.Mode.String()
			qm.Degraded = qr.planInfo.Degraded
			qm.PlansConsidered = qr.planInfo.Search.PlansConsidered
			qm.Degradations = qr.planInfo.Search.Degradations
			qm.PlanCache = qr.planInfo.CacheStatus
		}
		qr.engine.reg.Observe(qm)
	})
}

// errClass maps an error to the short class recorded in QueryMetrics.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrRowLimit):
		return "row-limit"
	case errors.Is(err, ErrIOBudget):
		return "io-budget"
	case errors.Is(err, storage.ErrInjected):
		return "injected-fault"
	case errors.Is(err, ErrOptimizerBudget):
		return "optimizer-budget"
	case errors.Is(err, ErrInternal):
		return "internal"
	default:
		return "error"
	}
}

// rowsOptions records how a door entered the pipeline. The public
// QueryOption functions (WithMode, WithParams, WithLimits, WithColdCache,
// WithoutViewRewrite) fold into it; the remaining fields are set by the
// doors themselves.
type rowsOptions struct {
	// mode overrides the engine mode when non-default (ad-hoc path only;
	// a prepared statement's mode is fixed at Prepare).
	mode OptimizerMode
	// cold drops the buffer pool before executing, so the measured IO
	// reflects a cold cache (the paper's experimental setting).
	cold bool
	// noViewRewrite disables materialized-view plan candidates for this run
	// (the experiment control; see WithoutViewRewrite).
	noViewRewrite bool
	// trace enables the optimizer search trace (EXPLAIN paths).
	trace bool
	// planOnly stops the run before the execute stage (Explain, Prepare):
	// the Rows it returns is already finished and carries only the plan.
	planOnly bool
	// stmt marks a prepared-statement run: the plan key was fixed at Prepare
	// and the statement text is parsed only when the plan must recompile.
	stmt *Stmt
	// params are the values bound to the statement's `?` placeholders.
	params []types.Value
	// limits are this run's resource limits (a zero field = no limit).
	limits Limits
	// snap overrides the catalog state the run binds and executes against.
	// Nil (the normal case) pins the published snapshot current at open; a
	// writer sets it to its working snapshot so its reads see its own
	// uncommitted writes — and never touch the plan cache: a plan compiled
	// against unpublished state must never serve a later reader.
	snap *catalog.Snapshot
	// block enters the pipeline at the resolve stage with an already bound
	// query (materialized-view maintenance; see Engine.runBlock).
	block *qblock.Query
	// start is when a door that parses before entering the pipeline (exec,
	// which must know the statement's kind to dispatch it) began; zero lets
	// run start the clock.
	start time.Time
}

// parseSelect is the pipeline's parse stage: one statement, which must be a
// SELECT.
func parseSelect(src string) (*sql.Select, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("aggview: this entry point requires a SELECT statement")
	}
	return sel, nil
}

// query is the door shared by the text-taking entry points: fold the
// caller's options over the door's own base settings and enter the pipeline.
func (e *Engine) query(ctx context.Context, src string, opt rowsOptions, opts []QueryOption) (*Rows, error) {
	for _, fn := range opts {
		if err := fn(&opt); err != nil {
			return nil, err
		}
	}
	return e.run(ctx, src, nil, opt)
}

// run drives one SELECT through the pipeline (see queryRun) and returns its
// cursor; sel is nil unless the door already parsed src, and then src is
// parsed only if its plan has to be compiled. The run pins its catalog
// snapshot first and binds, optimizes and executes entirely against it:
// concurrent commits publish new snapshots without ever disturbing this
// run, and this run never blocks a writer. Each run has its own storage
// session, so concurrent queries account and govern their IO independently.
// Every error path after the governor exists still finishes the run (and so
// publishes its metrics).
func (e *Engine) run(ctx context.Context, src string, sel *sql.Select, opt rowsOptions) (rows *Rows, err error) {
	start := opt.start
	if start.IsZero() {
		start = time.Now()
	}
	// A dead durable engine's memory may be ahead of its log; serving reads
	// (or plans) from it would expose unacknowledged state.
	if err := e.walAlive(); err != nil {
		return nil, err
	}
	qr := &queryRun{engine: e, src: src, opt: opt, snap: opt.snap, gov: govern.New(ctx, opt.limits),
		col: obs.NewCollector(), start: start}
	if qr.snap == nil {
		qr.snap = e.cat.Snapshot()
	}
	// Panics below are recovered at the engine boundary; without this the
	// run would never publish its metrics. finish is sync.Once-idempotent,
	// so paths that already finished are unaffected, and the success path
	// hands teardown ownership to the Rows.
	defer func() {
		if p := recover(); p != nil {
			qr.finish(fmt.Errorf("%w: %v", ErrInternal, p))
			panic(p)
		}
		if rows == nil {
			qr.finish(err)
		}
	}()

	if err = qr.resolvePlan(sel); err != nil {
		return nil, err
	}
	if opt.planOnly {
		qr.finish(nil)
		return &Rows{query: qr, done: true}, nil
	}
	return qr.execute()
}

// execute is the pipeline's execute stage. It builds per-run state only:
// this run's parameter vector checked against the plan's slots, the storage
// session, and the iterator tree over the shared compiled program.
func (qr *queryRun) execute() (*Rows, error) {
	qr.execStart = time.Now()
	e, cp := qr.engine, qr.cp
	params, err := checkParams(cp, qr.opt.params)
	if err != nil {
		return nil, err
	}
	if qr.opt.cold {
		// Best-effort cold measurement: with concurrent queries in flight
		// the pool refills as they run, but this query's own accounting
		// stays exact either way.
		e.store.ForceDropCaches()
	}
	qr.sess = e.store.NewSession(ioHook(qr.gov, qr.col))
	cur, err := exec.New(e.store).WithBatchSize(e.cfg.BatchSize).
		WithSession(qr.sess).WithGovernor(qr.gov).WithCollector(qr.col).
		WithParams(params).Open(cp.prog)
	if err != nil {
		return nil, err
	}

	return &Rows{query: qr, cur: cur}, nil
}

// closeWith closes the cursor and finishes the run with the given error.
func (r *Rows) closeWith(err error) {
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	r.closeLocked(err)
}

func (r *Rows) closeLocked(err error) {
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
	if err != nil && r.err == nil {
		r.err = err
	}
	r.query.finish(err)
	r.done = true
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.query.cp.ColNames }

// Plan describes the executed plan: mode (after any degradation),
// estimates, and search statistics.
func (r *Rows) Plan() *PlanInfo { return r.query.planInfo }

// Next advances to the next row, returning false at end of stream or on
// error (check Err). When the stream ends — including via LIMIT — the
// underlying cursor is closed and engine metrics are published.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	if r.query.rowsOut == int64(r.query.cp.Limit) { // LIMIT reached; -1 (none) never is
		r.closeWith(nil)
		return false
	}
	row, ok, err := r.cur.Next()
	if err != nil || !ok {
		r.current = nil
		r.closeWith(err)
		return false
	}
	r.query.rowsOut++
	r.current = r.carve(len(row))
	for i, v := range row {
		r.current[i] = valueToGo(v)
	}
	return true
}

// Scan copies the current row into dest: *int64, *float64, *string, *bool,
// or *any per column (an *any accepts every type, including NULL as nil).
func (r *Rows) Scan(dest ...any) error {
	if r.current == nil {
		return fmt.Errorf("aggview: Scan called without a row (check Next)")
	}
	if len(dest) != len(r.current) {
		return fmt.Errorf("aggview: Scan expects %d destinations, got %d", len(r.current), len(dest))
	}
	for i, d := range dest {
		v := r.current[i]
		switch p := d.(type) {
		case *any:
			*p = v
		case *int64:
			x, ok := v.(int64)
			if !ok {
				return fmt.Errorf("aggview: Scan column %d: cannot assign %T to *int64", i, v)
			}
			*p = x
		case *float64:
			switch x := v.(type) {
			case float64:
				*p = x
			case int64:
				*p = float64(x)
			default:
				return fmt.Errorf("aggview: Scan column %d: cannot assign %T to *float64", i, v)
			}
		case *string:
			x, ok := v.(string)
			if !ok {
				return fmt.Errorf("aggview: Scan column %d: cannot assign %T to *string", i, v)
			}
			*p = x
		case *bool:
			x, ok := v.(bool)
			if !ok {
				return fmt.Errorf("aggview: Scan column %d: cannot assign %T to *bool", i, v)
			}
			*p = x
		default:
			return fmt.Errorf("aggview: Scan column %d: unsupported destination %T", i, d)
		}
	}
	return nil
}

// Value returns the current row as converted Go values. Every row is a
// slice the Rows never writes again, so the caller may retain it. Rows may
// share a backing array: a retained row keeps the values of the rows
// delivered with it in one executor batch alive. A string shares its bytes
// with the column vector the executor read it from, whose bytes are never
// overwritten: retaining it keeps that vector's bytes alive.
func (r *Rows) Value() []any { return r.current }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor and publishes metrics. It is idempotent, safe
// after exhaustion, and — alone among the Rows methods — safe to call
// concurrently with itself (a caller's defer racing a watchdog goroutine
// tears down exactly once); a partially consumed stream is abandoned
// cleanly (spill files dropped, its IO totals fixed).
func (r *Rows) Close() error {
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	if !r.done {
		r.closeLocked(nil)
	}
	r.current, r.vals = nil, nil
	return r.err
}

// Ops returns the per-operator runtime metrics (available in full once the
// stream is finished or closed).
func (r *Rows) Ops() []OpMetrics {
	ops := r.query.col.Ops()
	out := make([]OpMetrics, len(ops))
	for i, op := range ops {
		out[i] = *op
	}
	return out
}

// IO returns the page IO performed by this query (final once the stream is
// finished or closed). The counters are this query's own — concurrent
// queries on the same engine never leak into them.
func (r *Rows) IO() IOStats {
	if r.query.done.Load() {
		return r.query.io
	}
	if r.query.sess != nil {
		return r.query.sess.Stats()
	}
	return IOStats{}
}

// carve returns the slice the current row's n values go in: rows are
// carved from one chunk per executor batch, sized for the rows the cursor
// holds (no more than LIMIT still allows), so a result allocates a chunk a
// batch instead of a slice a row.
func (r *Rows) carve(n int) []any {
	if len(r.vals) < n {
		rows := 1 + r.cur.Buffered()
		if limit := int64(r.query.cp.Limit); limit >= 0 {
			rows = int(min(int64(rows), 1+limit-r.query.rowsOut))
		}
		r.vals = make([]any, n*rows)
	}
	row := r.vals[:n:n]
	r.vals = r.vals[n:]
	return row
}

// QueryRows executes a SELECT and returns a streaming iterator over its
// result. It takes the same options as Query. The context governs the
// whole iteration: cancellation aborts the next page IO or row pull. The
// caller must Close the Rows (or drain it).
func (e *Engine) QueryRows(ctx context.Context, src string, opts ...QueryOption) (r *Rows, err error) {
	defer recoverToError(&err, src)
	return e.query(ctx, src, rowsOptions{}, opts)
}

// materialize drains an opened run into a Result, attaching the plan, the
// measured IO, and the per-operator metrics.
func materialize(r *Rows, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := &Result{Columns: r.Columns()}
	for r.Next() {
		out.Rows = append(out.Rows, r.current) // a fresh slice per row; see Value
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	out.Plan = r.Plan()
	out.IO = r.IO()
	out.Ops = r.Ops()
	return out, nil
}
