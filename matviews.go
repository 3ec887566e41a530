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

// MatViewRows reports the size of a materialized view's backing table in
// the current published snapshot: the rows it holds now, and the rows it
// held when it was last loaded — at CREATE, a refresh, or the last merge of
// incremental maintenance (or last ANALYZEd by hand) — which is what its
// statistics describe. Maintenance merges the table once live reaches
// twice loaded.
func (e *Engine) MatViewRows(name string) (live, loaded int64, ok bool) {
	snap := e.cat.Snapshot()
	mv, ok := snap.MatView(name)
	if !ok {
		return 0, 0, false
	}
	backing, ok := snap.Table(mv.Backing)
	if !ok {
		return 0, 0, false
	}
	return backing.File.Rows(), backing.Stats.Rows, true
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
	return e.buildMatView(def, false)
}

// buildMatView materializes a view from scratch: compute the partial
// aggregates from the (already updated) base tables, then load them as the
// view's backing table — on a refresh in place of the old one. The load is
// logged step by step inside the caller's transaction (see Def.Load).
func (e *Engine) buildMatView(def *matview.Def, refresh bool) error {
	rows, err := e.runBlock(def.PartialQuery())
	if err == nil {
		err = def.Load(e.cat, rows, refresh)
	}
	if err != nil {
		return fmt.Errorf("aggview: materialized view %q: %w", def.Name, err)
	}
	return nil
}

// maintainMatViews folds freshly inserted base rows into every materialized
// view reading the table. It runs inside the transaction's write batch,
// before the WAL commit, so the view is maintained atomically with the
// inserts: readers never observe the base table ahead of the view, and a
// crash either replays both or neither.
//
// Single-table definitions maintain incrementally (Def.Maintain): the
// inserted rows fold into delta partial rows appended to the backing table,
// and a commit that doubles the table merges it down to one row per group
// and re-analyzes it, so the table's size and its statistics stay within a
// factor of two of its groups. Multi-table definitions would need to join
// the delta against the other base tables; they fall back to a full refresh.
func (t *Txn) maintainMatViews(table string, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	e := t.e
	for _, mv := range e.cat.MatViewsOn(table) {
		def, err := t.boundView(mv)
		if err != nil {
			return fmt.Errorf("aggview: maintaining %w", err)
		}
		if !def.Incremental() {
			if err := e.buildMatView(def, true); err != nil {
				return err
			}
			continue
		}
		in, out, err := def.Maintain(e.cat, rows)
		if err != nil {
			return fmt.Errorf("aggview: maintaining materialized view %q: %w", mv.Name, err)
		}
		if in > 0 {
			t.merges++
			t.rowsMerged += in - out
		}
	}
	return nil
}

// boundView binds a view's definition for maintenance. An incremental
// definition is bound, and its delta and merge programs compiled, once per
// engine: they read nothing of the catalog but the base table's schema, so a
// bound Def stays valid while the view's text and that schema are unchanged
// (Def.BoundTo), however many commits replace the table's other state. A
// multi-table definition is bound on every use, because its refresh scans
// the Table objects it was bound to and an INSERT replaces them with
// copy-on-write clones. Only the admitted writer maintains views, so the
// writer gate guards the map.
func (t *Txn) boundView(mv *catalog.MatView) (*matview.Def, error) {
	e := t.e
	if def, ok := e.views[mv.Name]; ok && def.BoundTo(e.cat, mv) {
		return def, nil
	}
	def, err := matview.BindCatalog(e.cat, mv)
	if err == nil && def.Incremental() {
		if e.views == nil {
			e.views = map[string]*matview.Def{}
		}
		e.views[mv.Name] = def
	}
	return def, err
}

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
		block: q, snap: e.cat.WorkingSnapshot(), noViewRewrite: true})
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
