package aggview

import (
	"context"
	"fmt"

	"aggview/internal/catalog"
	"aggview/internal/core"
	"aggview/internal/lplan"
	"aggview/internal/matview"
	"aggview/internal/qblock"
	"aggview/internal/sql"
	"aggview/internal/types"
)

// MatViews lists the materialized views in the current published snapshot.
func (e *Engine) MatViews() []string {
	return e.cat.Snapshot().MatViewNames()
}

// viewPlans builds the materialized-view-backed plan candidates for a bound
// query: every catalog view whose definition can answer the query (see
// matview.Def.Rewrite for the legality rules) contributes complete
// alternative plans reading its backing table. The optimizer costs them
// against the best base-table plan; a candidate wins only when strictly
// cheaper. cat is the catalog state the query was bound against — a pinned
// snapshot on the read path, the working state inside a write batch.
func (e *Engine) viewPlans(cat catalog.Reader, q *qblock.Query) []core.ViewPlan {
	names := cat.MatViewNames()
	if len(names) == 0 {
		return nil
	}
	var out []core.ViewPlan
	for _, name := range names {
		mv, ok := cat.MatView(name)
		if !ok {
			continue
		}
		backing, ok := cat.Table(mv.Backing)
		if !ok {
			continue
		}
		def, err := matview.BindCatalog(cat, mv)
		if err != nil {
			// A definition that no longer binds (should be impossible while
			// DropTable guards base tables) simply stops contributing
			// rewrites; queries still run from base tables.
			continue
		}
		cands, ok := def.Rewrite(backing, q)
		if !ok {
			continue
		}
		for _, c := range cands {
			if lplan.Validate(c.Root) != nil {
				continue
			}
			out = append(out, core.ViewPlan{Name: c.Name, Root: c.Root})
		}
	}
	return out
}

// createMatView executes CREATE MATERIALIZED VIEW inside the caller's
// transaction: bind the definition, then build the view.
func (e *Engine) createMatView(t *sql.CreateMaterializedView) error {
	def, err := matview.Bind(e.cat, t.Name, t.Text)
	if err != nil {
		return fmt.Errorf("aggview: %w", err)
	}
	return e.buildMatView(def, t.Text, false)
}

// buildMatView materializes a view from scratch: compute the partial
// aggregates from the (already updated) base tables, on a refresh drop the
// old view with its backing table, create the backing table, load it,
// analyze it (so the cost model sees real cardinalities immediately), and
// register the catalog object last. Every step is logged in order inside
// the caller's transaction, so crash-recovery replay reconstructs the exact
// same state; the view object is only ever durable after its rows are.
func (e *Engine) buildMatView(def *matview.Def, sqlText string, refresh bool) error {
	rows, err := e.runBlock(def.PartialQuery())
	if err == nil && refresh {
		err = e.cat.DropMatView(def.Name)
	}
	var backing *catalog.Table
	if err == nil {
		backing, err = e.cat.CreateTable(def.Backing, def.BackingSchema(), nil, nil)
	}
	if err != nil {
		return fmt.Errorf("aggview: materialized view %q: %w", def.Name, err)
	}
	if err := e.loadMatView(def, sqlText, backing, rows); err != nil {
		// The view object is not registered, so the backing table can be
		// dropped directly; the drop is logged like every other step.
		_ = e.cat.DropTable(def.Backing)
		return fmt.Errorf("aggview: materialized view %q: %w", def.Name, err)
	}
	return nil
}

// loadMatView fills a fresh backing table with the computed partial rows,
// analyzes it, and registers the view over it.
func (e *Engine) loadMatView(def *matview.Def, sqlText string, backing *catalog.Table, rows []types.Row) error {
	for _, row := range rows {
		if err := e.cat.Insert(backing, row); err != nil {
			return err
		}
	}
	if err := e.cat.Analyze(backing); err != nil {
		return err
	}
	_, err := e.cat.CreateMatView(def.Name, sqlText, def.Backing, def.BaseTables)
	return err
}

// maintainMatViews folds freshly inserted base rows into every materialized
// view reading the table. It runs inside the INSERT's write-lock critical
// section, before the WAL commit, so the view is maintained atomically with
// the inserts: readers never observe the base table ahead of the view, and
// a crash either replays both or neither.
//
// Single-table definitions maintain incrementally: the inserted rows fold
// into delta partial rows appended to the backing table (query-time
// coalescing merges old and new partials, so history is never rewritten).
// Multi-table definitions would need to join the delta against the other
// base tables; they fall back to a full refresh. Incremental appends leave
// the backing table's statistics deliberately stale — ANALYZE is replayed
// from the log on recovery, so re-running it here would be redundant work
// on every INSERT; run ANALYZE manually after bulk loads if plan quality
// matters.
func (e *Engine) maintainMatViews(table string, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	for _, mv := range e.cat.MatViewsOn(table) {
		def, err := matview.BindCatalog(e.cat, mv)
		if err != nil {
			return fmt.Errorf("aggview: maintaining %w", err)
		}
		if !def.Incremental() {
			if err := e.buildMatView(def, mv.SQL, true); err != nil {
				return err
			}
			continue
		}
		backing, ok := e.cat.Table(mv.Backing)
		if !ok {
			return fmt.Errorf("aggview: materialized view %q: backing table %q missing", mv.Name, mv.Backing)
		}
		delta, err := def.Delta(rows)
		if err != nil {
			return fmt.Errorf("aggview: maintaining materialized view %q: %w", mv.Name, err)
		}
		for _, row := range delta {
			if err := e.cat.Insert(backing, row); err != nil {
				return fmt.Errorf("aggview: maintaining materialized view %q: %w", mv.Name, err)
			}
		}
	}
	return nil
}

// unlimited lifts every engine-level resource limit for one run.
var unlimited = Limits{Timeout: -1, MaxRowsOut: -1, MaxIOPages: -1, OptimizerBudget: -1}

// runBlock runs an already bound internal query through the query pipeline
// while the caller is the admitted writer, reading its uncommitted working
// state (the public doors pin the published snapshot and would not see the
// statement being applied). The run enters at the resolve stage, bypasses
// the plan cache and the view rewrite, carries no resource limits and
// publishes no metrics: view materialization is part of a DDL or INSERT
// statement and is not separately budgeted or counted. Rows are copied out
// of the executor's reused buffers.
func (e *Engine) runBlock(q *qblock.Query) ([]types.Row, error) {
	rows, err := e.run(context.Background(), "", nil, rowsOptions{
		block: q, snap: e.cat.WorkingSnapshot(), noViewRewrite: true, limits: unlimited})
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []types.Row
	for {
		row, ok, err := rows.cur.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, append(types.Row(nil), row...))
	}
}
