package aggview

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aggview/internal/catalog"
	"aggview/internal/core"
	"aggview/internal/datagen"
	"aggview/internal/lplan"
	"aggview/internal/matview"
	"aggview/internal/obs"
	"aggview/internal/schema"
	"aggview/internal/sql"
	"aggview/internal/storage"
	"aggview/internal/txn"
	"aggview/internal/types"
)

// OptimizerMode selects the enumeration algorithm; see the paper's
// Section 5 and the core package documentation.
type OptimizerMode = core.Mode

// Optimizer modes.
const (
	// ModeDefault is the zero value; Open resolves it to Full with the
	// paper's practical restrictions (k=2 pull-up, predicate sharing).
	// Because the zero value is its own constant, Config{Mode: Traditional}
	// means Traditional — it is never silently rewritten.
	ModeDefault OptimizerMode = core.ModeDefault
	// Traditional optimizes each view locally and joins with group-bys
	// last (the Section 5.1 baseline).
	Traditional OptimizerMode = core.ModeTraditional
	// PushDown adds the greedy conservative heuristic (early group-by
	// placement within blocks).
	PushDown OptimizerMode = core.ModePushDown
	// Full adds the pull-up transformation (cross-block reordering).
	Full OptimizerMode = core.ModeFull
)

// EmpDeptSpec and TPCDSpec parametrize the built-in dataset generators.
type (
	EmpDeptSpec = datagen.EmpDeptSpec
	TPCDSpec    = datagen.TPCDSpec
)

// DefaultEmpDept returns the emp/dept generator's default shape.
func DefaultEmpDept() EmpDeptSpec { return datagen.DefaultEmpDept() }

// DefaultTPCD returns the TPC-D-like generator's default shape.
func DefaultTPCD() TPCDSpec { return datagen.DefaultTPCD() }

// IOStats mirrors the storage layer's page-IO counters.
type IOStats = storage.IOStats

// SearchStats mirrors the optimizer's enumeration counters.
type SearchStats = core.SearchStats

// SearchTrace is the optimizer's search decision log (EXPLAIN paths only);
// see PlanInfo.Trace.
type SearchTrace = core.SearchTrace

// OpMetrics holds one operator's measured runtime metrics: rows out, page
// reads/writes/hits (self-only), spill subsets, and wall times (inclusive
// of children).
type OpMetrics = obs.OpStats

// QueryMetrics is the per-query rollup delivered to the metrics sink.
type QueryMetrics = obs.QueryMetrics

// Metrics is the engine-wide cumulative metrics snapshot; see
// Engine.Metrics.
type Metrics = obs.Metrics

// MetricsSink receives every query's rollup synchronously as it completes;
// see Engine.SetMetricsSink.
type MetricsSink = obs.Sink

// Config tunes an Engine.
type Config struct {
	// PoolPages is the buffer pool budget in 4 KiB pages (default 128).
	// It bounds both the executor's spill thresholds and the cost model's
	// memory assumptions.
	PoolPages int
	// Mode selects the optimizer algorithm. The zero value ModeDefault
	// resolves to Full; any explicit mode — including Traditional — is
	// honored as given.
	Mode OptimizerMode
	// SystemRJoins restricts the plan space to block nested-loops and
	// sort-merge joins — the repertoire of the paper's era.
	SystemRJoins bool
	// BatchSize sets the executor's row-vector size: how many rows flow
	// between operators per NextBatch call (0 means the default, 1024).
	// Batch size never changes results, page IO or spill counts — only the
	// per-call amortization; 1 degenerates to row-at-a-time execution and
	// exists for differential testing.
	BatchSize int

	// DataDir, when non-empty, makes the engine durable: every mutation is
	// written to a write-ahead log under this directory before it is
	// acknowledged, and opening the same directory again recovers the
	// previous state (see OpenDurable). Empty means a purely in-memory
	// engine, exactly as before.
	DataDir string
	// CheckpointBytes triggers an automatic checkpoint once this many log
	// bytes accumulate since the last one (default DefaultCheckpointBytes;
	// negative disables auto-checkpointing — Engine.Checkpoint still works).
	// Ignored for in-memory engines.
	CheckpointBytes int64
}

// Engine is a self-contained database instance: storage, catalog,
// optimizer and executor.
//
// Engines are safe for concurrent use: any number of goroutines may run
// Query/QueryRows/Exec/ExplainAnalyze at once. Each
// query is accounted through its own storage session, so Result.IO, the
// per-operator metrics, and the MaxIOPages/MaxRowsOut budgets see only that
// query's pages; Engine.IOStats remains the store-global sum.
//
// Reads never block writes and writes never block reads: every query pins
// the catalog snapshot that is current when it opens and runs against it to
// completion, so a long-lived Rows cursor observes a frozen, consistent
// database no matter what commits around it. Statements that mutate shared
// state (CREATE/DROP/INSERT/ANALYZE, LoadEmpDept, LoadTPCD, and explicit
// transactions via Begin) serialize against each other behind a
// single-writer gate; they are free to run while any number of cursors are
// open, including from the same goroutine.
type Engine struct {
	store *storage.Store
	cat   *catalog.Catalog
	cfg   Config
	// reg accumulates per-query metrics engine-wide; engines derived via
	// WithConfig share it, so Metrics() covers the whole instance.
	reg *obs.Registry
	// gate is the single-writer admission control: DDL, INSERT, dataset
	// loads and explicit transactions hold it from begin to commit. Readers
	// never touch it — they pin a published catalog snapshot instead. The
	// gate is shared by engines derived via WithConfig, which alias the
	// same store and catalog.
	gate *txn.Gate
	// cache holds compiled plans, ad-hoc and prepared alike. Engines
	// derived via WithConfig get their own cache — the
	// configuration shapes the plans, so entries cannot cross engines —
	// while invalidation rides on the shared catalog's version counter.
	cache *planCache
	// wal is the durability state for engines opened with Config.DataDir
	// (nil for in-memory engines). Shared by WithConfig derivatives, which
	// alias the same catalog and therefore the same log.
	wal *walState
	// views holds the incremental materialized-view definitions bound for
	// maintenance, by view name (see Txn.boundView). The writer gate guards
	// it.
	views map[string]*matview.Def
}

// newEngine assembles an engine around an existing store and catalog
// (shared by Open and OpenDurable; cfg must already be resolved).
func newEngine(store *storage.Store, cat *catalog.Catalog, cfg Config) *Engine {
	return &Engine{
		store: store, cat: cat, cfg: cfg,
		reg: obs.NewRegistry(), gate: txn.NewGate(), cache: newPlanCache(),
	}
}

// resolveConfig fills in the defaults: the pool size, and the explicit
// ModeDefault constant resolving to Full with the paper's restrictions.
func resolveConfig(cfg Config) Config {
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = storage.DefaultPoolPages
	}
	if cfg.Mode == ModeDefault {
		cfg.Mode = Full
	}
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = DefaultCheckpointBytes
	}
	return cfg
}

// Open creates an engine: in-memory by default, or durable when
// cfg.DataDir is set — then it opens (and recovers) the data directory via
// OpenDurable and panics on failure. Code that must handle recovery errors
// gracefully should call OpenDurable directly.
func Open(cfg Config) *Engine {
	if cfg.DataDir != "" {
		e, err := OpenDurable(cfg)
		if err != nil {
			panic(fmt.Sprintf("aggview: Open(%q): %v", cfg.DataDir, err))
		}
		return e
	}
	cfg = resolveConfig(cfg)
	st := storage.NewStore(cfg.PoolPages)
	return newEngine(st, catalog.New(st), cfg)
}

// WithConfig returns an engine sharing this engine's storage, catalog and
// metrics registry but optimizing under a different configuration.
// PoolPages is taken from the receiver (the buffer pool is shared and
// cannot be resized).
func (e *Engine) WithConfig(cfg Config) *Engine {
	cfg.PoolPages = e.cfg.PoolPages
	// Durability is a property of the shared store/catalog, not of the
	// derived view: the receiver's log (if any) carries over and DataDir
	// cannot be changed here.
	cfg.DataDir = e.cfg.DataDir
	cfg = resolveConfig(cfg)
	return &Engine{
		store: e.store, cat: e.cat, cfg: cfg,
		reg: e.reg, gate: e.gate, cache: newPlanCache(), wal: e.wal,
	}
}

// Metrics returns the engine-wide cumulative metrics snapshot: queries run,
// failures by class, rows produced, page IO (with spill subsets), optimizer
// effort, and phase wall times. Engines derived via WithConfig contribute
// to the same snapshot.
func (e *Engine) Metrics() Metrics { return e.reg.Snapshot() }

// SetMetricsSink installs a hook receiving every query's rollup as it
// completes (nil disables). The sink runs synchronously on the query's
// goroutine; it should hand off quickly. Returns the previous sink.
func (e *Engine) SetMetricsSink(s MetricsSink) MetricsSink { return e.reg.SetSink(s) }

// Result is a materialized query result. Row values are native Go values:
// int64, float64, string, bool, or nil.
//
// SELECTs executed through Query/Exec also attach the
// execution's observability: the plan (with estimates and search stats),
// the measured page IO, and per-operator runtime metrics. DDL and INSERT
// leave those fields zero.
type Result struct {
	Columns []string
	Rows    [][]any

	// Plan describes the optimized plan that ran: the mode that produced it
	// (after any budget degradation), the plan text, the cost model's
	// estimates, and the optimizer's search statistics. Nil for non-SELECT
	// statements.
	Plan *PlanInfo
	// IO is the page IO this query performed (a delta over the engine
	// counters, so concurrent queries measure independently).
	IO IOStats
	// Ops holds the per-operator runtime metrics in operator-registration
	// order. Summing the page counters (plus nothing else — attribution is
	// exact) reproduces IO's Reads/Writes/Hits.
	Ops []OpMetrics
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// String renders a small result as an aligned table.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, "\t"))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = fmt.Sprint(v)
		}
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// IOStats returns the cumulative page-IO counters: the store-global sum
// over all queries (plus unattributed catalog IO such as dataset loads).
// Per-query IO rides on Result.IO and Rows.IO.
func (e *Engine) IOStats() IOStats { return e.store.Stats() }

// Tables lists the base tables in the current published snapshot.
func (e *Engine) Tables() []string {
	return e.cat.Snapshot().TableNames()
}

// Views lists the named views in the current published snapshot.
func (e *Engine) Views() []string {
	return e.cat.Snapshot().ViewNames()
}

// LoadEmpDept populates the paper's emp/dept schema.
func (e *Engine) LoadEmpDept(spec EmpDeptSpec) error {
	return e.autoCommit(context.Background(), func(*Txn) error { return datagen.LoadEmpDept(e.cat, spec) })
}

// LoadTPCD populates the TPC-D-like star schema.
func (e *Engine) LoadTPCD(spec TPCDSpec) error {
	return e.autoCommit(context.Background(), func(*Txn) error { return datagen.LoadTPCD(e.cat, spec) })
}

// Exec parses and executes one statement. DDL and INSERT return an empty
// result; SELECT returns rows; EXPLAIN returns the plan text as rows.
func (e *Engine) Exec(src string) (*Result, error) {
	return e.exec(context.Background(), nil, src, nil)
}

// MustExec is Exec for setup code; it panics on error.
func (e *Engine) MustExec(src string) *Result {
	res, err := e.Exec(src)
	if err != nil {
		panic(fmt.Sprintf("aggview: %v (in %q)", err, src))
	}
	return res
}

// ExecScript parses a semicolon-separated statement sequence, then runs
// each statement as its own Exec under ctx — labelled in metrics and errors
// with its own text, not the script's — returning the last result.
func (e *Engine) ExecScript(ctx context.Context, src string) (last *Result, err error) {
	stmts, texts, err := sql.ParseScript(src)
	if err != nil {
		return nil, err
	}
	for i, stmt := range stmts {
		if last, err = e.exec(ctx, nil, texts[i], stmt); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// Query executes a SELECT and materializes the result. It is the single
// query entry point: options tune one run without touching the engine
// configuration —
//
//	res, err := eng.Query(ctx, sql)                              // engine defaults
//	res, err := eng.Query(ctx, sql, aggview.WithMode(aggview.PushDown))
//	res, err := eng.Query(ctx, sql, aggview.WithParams(42, "x"))
//	res, err := eng.Query(ctx, sql, aggview.WithLimits(aggview.Limits{MaxIOPages: 1000}))
//	res, err := eng.Query(ctx, sql, aggview.WithColdCache())     // paper's measurement setting
//
// A canceled context or an expired deadline stops execution at the next
// page IO (even mid-spill inside a join) and returns an error wrapping
// ErrCanceled. The plan, measured IO and per-operator metrics ride on the
// Result. For a streaming result, use QueryRows with the same options.
func (e *Engine) Query(ctx context.Context, src string, opts ...QueryOption) (res *Result, err error) {
	defer recoverToError(&err, src)
	return materialize(e.query(ctx, src, rowsOptions{}, opts))
}

// exec is the one statement path behind Exec, ExecScript and
// Txn.Exec: parse src (unless the caller holds the parsed stmt) and
// dispatch. t is the enclosing transaction, nil for auto-commit. SELECT and
// EXPLAIN enter the query pipeline, reading t's working state if there is
// one. Everything else (DDL, INSERT, ANALYZE) applies to the writer's
// private copy-on-write batch — t's, or an auto-commit transaction around
// this one statement, logged and fsynced before it publishes, so it is
// durable before any reader can observe it.
func (e *Engine) exec(ctx context.Context, t *Txn, src string, stmt sql.Statement) (res *Result, err error) {
	defer recoverToError(&err, src)
	opt := rowsOptions{start: time.Now()}
	if stmt == nil {
		if stmt, err = sql.Parse(src); err != nil {
			return nil, err
		}
	}
	if t != nil {
		opt.snap = e.cat.WorkingSnapshot()
	}
	switch s := stmt.(type) {
	case *sql.Select:
		return materialize(e.run(ctx, src, s, opt))

	case *sql.Explain:
		if t != nil {
			return nil, fmt.Errorf("aggview: EXPLAIN is not supported inside a transaction")
		}
		if s.Analyze {
			rows, err := e.run(ctx, src, s.Query, rowsOptions{cold: true, trace: true, start: opt.start})
			a, err := analyzeRows(rows, err)
			if err != nil {
				return nil, err
			}
			res := planResult(a.String(), a.Plan)
			res.IO, res.Ops = a.IO, rows.Ops()
			return res, nil
		}
		rows, err := e.run(ctx, src, s.Query, rowsOptions{trace: true, planOnly: true, start: opt.start})
		if err != nil {
			return nil, err
		}
		info := rows.Plan()
		text := fmt.Sprintf("%s\nestimated cost: %.1f page IOs\nsearch: %s",
			strings.TrimRight(info.PlanText, "\n"), info.EstimatedCost, info.Search)
		if info.ViewRewrite != "" {
			text += "\nview rewrite: " + info.ViewRewrite
		}
		return planResult(text, info), nil

	default:
		apply := func(t *Txn) error { return t.applyWrite(stmt) }
		if t != nil {
			err = apply(t)
		} else {
			err = e.autoCommit(ctx, apply)
		}
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
}

// planResult renders an EXPLAIN report as a one-column result, one row per
// line.
func planResult(text string, info *PlanInfo) *Result {
	res := &Result{Columns: []string{"plan"}, Plan: info}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, []any{line})
	}
	return res
}

// applyWrite applies one mutating statement to the transaction's working
// state.
func (tx *Txn) applyWrite(stmt sql.Statement) error {
	e := tx.e
	switch t := stmt.(type) {
	case *sql.CreateTable:
		cols := make([]schema.Column, len(t.Cols))
		for i, c := range t.Cols {
			cols[i] = schema.Column{ID: schema.ColID{Name: c.Name}, Type: c.Type}
		}
		var fks []schema.ForeignKey
		for _, fk := range t.ForeignKeys {
			fks = append(fks, schema.ForeignKey{Cols: fk.Cols, RefTable: fk.RefTable, RefCols: fk.RefCols})
		}
		_, err := e.cat.CreateTable(t.Name, cols, t.PrimaryKey, fks)
		return err

	case *sql.CreateView:
		_, err := e.cat.CreateView(t.Name, t.Cols, t.Text)
		return err

	case *sql.CreateMaterializedView:
		return e.createMatView(t)

	case *sql.DropMaterializedView:
		if err := e.cat.DropMatView(t.Name); err != nil {
			return fmt.Errorf("aggview: %v", err)
		}
		delete(e.views, strings.ToLower(t.Name)) // let the bound tables go
		return nil

	case *sql.DropTable:
		return e.cat.DropTable(t.Name)

	case *sql.Insert:
		tbl, ok := e.cat.Table(t.Table)
		if !ok {
			return fmt.Errorf("aggview: table %q not found", t.Table)
		}
		inserted := make([]types.Row, 0, len(t.Rows))
		for _, astRow := range t.Rows {
			row := make(types.Row, len(astRow))
			for i, ex := range astRow {
				v, err := evalLiteral(ex)
				if err != nil {
					return err
				}
				row[i] = v
			}
			// Insert coerces the row in place (int → float), so the slice
			// retained for view maintenance carries the stored values.
			if err := e.cat.Insert(tbl, row); err != nil {
				return err
			}
			inserted = append(inserted, row)
		}
		return tx.maintainMatViews(tbl.Name, inserted)

	case *sql.Analyze:
		names := e.cat.TableNames()
		if t.Table != "" {
			names = []string{t.Table}
		}
		for _, name := range names {
			tbl, ok := e.cat.Table(name)
			if !ok {
				return fmt.Errorf("aggview: table %q not found", name)
			}
			if err := e.cat.Analyze(tbl); err != nil {
				return err
			}
		}
		return nil

	default:
		return fmt.Errorf("aggview: unsupported statement %T", stmt)
	}
}

// evalLiteral evaluates the constant expressions allowed in VALUES rows.
func evalLiteral(e sql.Expr) (types.Value, error) {
	switch t := e.(type) {
	case sql.Lit:
		return t.Val, nil
	case sql.Neg:
		v, err := evalLiteral(t.E)
		if err != nil {
			return types.Null(), err
		}
		switch v.K {
		case types.KindInt:
			return types.NewInt(-v.I), nil
		case types.KindFloat:
			return types.NewFloat(-v.F()), nil
		}
		return types.Null(), fmt.Errorf("aggview: cannot negate %s", v)
	default:
		return types.Null(), fmt.Errorf("aggview: VALUES rows must be literals, got %s", sql.ExprString(e))
	}
}

func valueToGo(v types.Value) any {
	switch v.K {
	case types.KindInt:
		return v.I
	case types.KindFloat:
		return v.F()
	case types.KindString:
		return v.S()
	case types.KindBool:
		return v.I != 0
	default:
		return nil
	}
}

// PlanInfo describes an optimized plan.
type PlanInfo struct {
	// Mode is the mode that actually produced the plan. When the optimizer
	// budget tripped and the ladder degraded, it is cheaper than
	// RequestedMode.
	Mode OptimizerMode
	// RequestedMode is the mode the caller asked for.
	RequestedMode OptimizerMode
	// Degraded reports that the search budget forced a fallback to a
	// cheaper mode (Full → PushDown → Traditional).
	Degraded      bool
	PlanText      string
	EstimatedCost float64 // page IOs under the cost model
	EstimatedRows float64
	Search        SearchStats
	// Trace is the optimizer's decision log; populated on the EXPLAIN and
	// EXPLAIN ANALYZE paths, nil on the normal query path (tracing is not
	// free).
	Trace *SearchTrace
	// ViewRewrite names the materialized view whose backing table the plan
	// reads, when the cost-based rewrite chose a view-backed plan over the
	// best base-table plan. Empty when the base plan won or no view was
	// applicable. EXPLAIN renders it as "view rewrite: <name>".
	ViewRewrite string
	// CacheStatus is the plan's provenance for this execution: "hit" (a
	// cached compiled plan was reused; Search is zero because no
	// optimization ran), "miss" (compiled and cached), "invalidated"
	// (a cached plan was stale against the catalog version and was
	// recompiled), or "bypass" (cache not consulted: EXPLAIN paths, a run
	// inside a transaction, or a degraded plan).
	CacheStatus string

	// root is the plan tree — frozen at compile, shared by every run of the
	// plan, never mutated — that execution and EXPLAIN ANALYZE walk.
	root lplan.Node
}

// Explain optimizes a SELECT and returns the plan with the optimizer's
// search trace, without executing it: the query pipeline run with a trace
// and stopped before the execute stage. It takes the same options as Query
// (WithMode picks the optimizer mode; WithoutViewRewrite and WithLimits'
// OptimizerBudget are honoured, and ctx bounds the search) and plans
// against the published catalog snapshot current at the call.
func (e *Engine) Explain(ctx context.Context, src string, opts ...QueryOption) (info *PlanInfo, err error) {
	defer recoverToError(&err, src)
	rows, err := e.query(ctx, src, rowsOptions{trace: true, planOnly: true}, opts)
	if err != nil {
		return nil, err
	}
	return rows.Plan(), nil
}

// ExplainAll optimizes a SELECT under every mode, in order traditional,
// push-down, full — the comparison every experiment in the paper rests on.
func (e *Engine) ExplainAll(src string) ([]*PlanInfo, error) {
	var out []*PlanInfo
	for _, mode := range []OptimizerMode{Traditional, PushDown, Full} {
		info, err := e.Explain(context.Background(), src, WithMode(mode))
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}
