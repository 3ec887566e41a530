package matview

import (
	"fmt"
	"slices"

	"aggview/internal/catalog"
	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// Both maintenance steps are a GroupBy over an Input leaf, compiled once
// into an exec.Program and run on an in-memory executor: Delta groups the
// inserted base rows that pass the definition's filter and computes each
// group's Partial aggregates, Merge groups backing rows and coalesces each
// partial column. The executor's hash aggregation finds groups by hash and
// typed equality (NULL keys equal, as GROUP BY wants) and, holding
// everything in memory, emits them in first-seen order. A view definition
// has no `?` (Bind refuses one), so the programs run without parameters.

// run runs a maintenance program over rows and returns its output rows.
func run(p *exec.Program, rows []types.Row) ([]types.Row, error) {
	res, err := exec.NewInMemory().WithInput(rows).RunProgram(p)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// Incremental reports whether INSERT maintenance can fold deltas locally:
// the definition must read a single relation, so one inserted row maps to
// exactly one group's partial delta. Multi-relation definitions join the
// new rows against other tables and fall back to a full refresh.
func (d *Def) Incremental() bool { return len(d.Block.Rels) == 1 }

// BoundTo reports whether an incremental Def, bound earlier, still describes
// the view mv of cat: the view's text is the one bound, and its base table's
// schema is the one the delta was compiled against. Delta, Merge and
// Maintain read nothing else the binding captured, so a holder may keep such
// a Def, with its compiled programs, across any number of commits.
func (d *Def) BoundTo(cat catalog.Reader, mv *catalog.MatView) bool {
	if mv.Name != d.Name || mv.SQL != d.SQL || !d.Incremental() {
		return false
	}
	base, ok := cat.Table(d.Block.Rels[0].Table.Name)
	return ok && slices.Equal(base.Schema, d.Block.Rels[0].Table.Schema)
}

// Delta folds newly inserted base-table rows into backing-table delta
// rows: the definition's filter is applied, survivors are grouped, and
// each group's partial aggregates are computed. Appending the returned
// rows to the backing table maintains the view exactly, because every
// reader of the backing table — the rewrite's plans and Merge — coalesces
// the partials of a group. Only valid when Incremental().
//
// The compiled program is kept on the Def, so a holder that calls Delta
// repeatedly compiles once; a Def is therefore not safe for use from
// several goroutines.
func (d *Def) Delta(rows []types.Row) ([]types.Row, error) {
	if d.delta == nil {
		p, err := d.compileDelta()
		if err != nil {
			return nil, err
		}
		d.delta = p
	}
	return run(d.delta, rows)
}

func (d *Def) compileDelta() (*exec.Program, error) {
	if !d.Incremental() {
		return nil, fmt.Errorf("materialized view %q: delta maintenance requires a single-table definition", d.Name)
	}
	var in lplan.Node = &lplan.Input{Cols: d.Block.Rels[0].Schema()}
	if len(d.Block.Conjs) > 0 {
		in = &lplan.Filter{In: in, Preds: d.Block.Conjs}
	}
	g := &lplan.GroupBy{In: in, Method: lplan.AggHash}
	for _, sg := range d.Groups {
		g.GroupCols = append(g.GroupCols, sg.Src)
	}
	for _, sa := range d.Aggs {
		for _, p := range sa.Parts {
			g.Aggs = append(g.Aggs, p.Part.Partial)
		}
	}
	return exec.Compile(g)
}

// Merge folds backing-table rows into one row per stored group: each
// partial column is accumulated with its Coalesce function — simple
// coalescing grouping (§4.2) applied to the store instead of at query
// time. The result answers every rewrite exactly as the input did, so a
// backing table may be replaced by its Merge at any moment. Merge is
// idempotent, and Merge(a ++ b) = Merge(Merge(a) ++ b).
func (d *Def) Merge(rows []types.Row) ([]types.Row, error) {
	if d.merge == nil {
		p, err := d.compileMerge()
		if err != nil {
			return nil, err
		}
		d.merge = p
	}
	return run(d.merge, rows)
}

// compileMerge compiles the coalescing GroupBy over the backing layout. Each
// coalesced part keeps its column's name, so the output has the input's
// schema.
func (d *Def) compileMerge() (*exec.Program, error) {
	in := &lplan.Input{}
	g := &lplan.GroupBy{In: in, Method: lplan.AggHash}
	for _, sg := range d.Groups {
		in.Cols = append(in.Cols, schema.Column{ID: sg.Col, Type: sg.Typ})
		g.GroupCols = append(g.GroupCols, sg.Col)
	}
	for _, sa := range d.Aggs {
		for _, p := range sa.Parts {
			in.Cols = append(in.Cols, schema.Column{ID: p.Col, Type: p.Typ})
			g.Aggs = append(g.Aggs, expr.Agg{Kind: p.Part.Coalesce, Arg: expr.ColOf(p.Col), Out: p.Col})
		}
	}
	return exec.Compile(g)
}

// Load is the one path that (re)builds a view's backing table, shared by
// CREATE, the multi-table refresh and the merge of incremental
// maintenance: on replace drop the view with its old backing table, then
// create the backing table, insert rows (computed by the caller from the
// state before the drop), analyze it so the cost model sees its real
// cardinalities, and register the view last. Every step is an ordinary
// logged catalog mutation inside the caller's write batch, so crash
// recovery replays the same state and the view object is only ever
// durable after its rows are.
func (d *Def) Load(cat *catalog.Catalog, rows []types.Row, replace bool) error {
	if replace {
		if err := cat.DropMatView(d.Name); err != nil {
			return err
		}
	}
	backing, err := cat.CreateTable(d.Backing, d.BackingSchema(), nil, nil)
	if err != nil {
		return err
	}
	if err = d.fill(cat, backing, rows); err != nil {
		// The view object is not registered, so the backing table can be
		// dropped directly; the drop is logged like every other step.
		_ = cat.DropTable(d.Backing)
	}
	return err
}

func (d *Def) fill(cat *catalog.Catalog, backing *catalog.Table, rows []types.Row) error {
	for _, row := range rows {
		if err := cat.Insert(backing, row); err != nil {
			return err
		}
	}
	if err := cat.Analyze(backing); err != nil {
		return err
	}
	_, err := cat.CreateMatView(d.Name, d.SQL, d.Backing, d.BaseTables)
	return err
}

// Maintain folds rows just inserted into the definition's base table into
// the view, inside the caller's write batch: it appends their Delta to the
// backing table and, when the table has doubled, merges it.
//
// The table has doubled when it holds at least twice the rows its last
// Load analyzed and more than one page (a view loaded empty has nothing to
// double, so its first page fills before its first merge). The merge
// replaces the table by its Merge through Load. Doubling makes the rewrite
// amortised O(1) rows per delta row and keeps the table within 2 × groups
// rows plus a page however many commits it has absorbed; the trigger reads
// only state the catalog already holds, so there is nothing to tune.
//
// in and out are the rows a merge read and wrote, both 0 when none ran.
// Only valid when Incremental().
func (d *Def) Maintain(cat *catalog.Catalog, rows []types.Row) (in, out int64, err error) {
	delta, err := d.Delta(rows)
	if err != nil || len(delta) == 0 {
		return 0, 0, err
	}
	backing, ok := cat.Table(d.Backing)
	if !ok {
		return 0, 0, fmt.Errorf("backing table %q missing", d.Backing)
	}
	for _, row := range delta {
		if err := cat.Insert(backing, row); err != nil {
			return 0, 0, err
		}
	}
	// Insert wrote to the batch's copy-on-write clone; look it up again to
	// see the appended rows.
	backing, _ = cat.Table(d.Backing)
	if backing.File.Rows() < 2*backing.Stats.Rows || backing.File.Pages() <= 1 {
		return 0, 0, nil
	}
	stored := make([]types.Row, 0, backing.File.Rows())
	for sc := cat.Store().NewScanner(backing.File); ; {
		page, _, ok, err := sc.NextPage()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		stored = page.AppendRows(stored)
	}
	compact, err := d.Merge(stored)
	if err == nil {
		err = d.Load(cat, compact, true)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("merge: %w", err)
	}
	return int64(len(stored)), int64(len(compact)), nil
}
