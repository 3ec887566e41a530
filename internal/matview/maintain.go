package matview

import (
	"fmt"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/types"
)

// fold is the one grouping loop of view maintenance: rows that pass keep
// are grouped by the values at the key positions, and each group's parts
// are accumulated. Delta runs it with the definition's filter and Partial
// accumulators over base rows, Merge with Coalesce accumulators over
// backing rows. Groups are found by hash and types.Compare equality (NULL
// keys equal, as GROUP BY wants) and come out in first-seen order. A view
// definition has no `?` (Bind refuses one), so the compiled filter and
// arguments run with a nil parameter vector.
type fold struct {
	keep  expr.Predicate // nil keeps every row
	keys  []int          // key column positions in the input rows
	parts []foldPart
}

type foldPart struct {
	agg expr.Agg      // makes the part's accumulator
	arg expr.Compiled // the value folded per row; nil for COUNT(*)
}

// run returns one row per group: the key values, then each part's result.
func (f *fold) run(rows []types.Row) ([]types.Row, error) {
	type group struct {
		first types.Row // the group's first input row; its key is read from it
		accs  []expr.Accumulator
	}
	var groups []group
	byHash := map[uint64][]int{} // key hash → groups with that hash
	for _, row := range rows {
		if f.keep != nil {
			ok, err := f.keep(row, nil)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		h := row.Hash(f.keys)
		g := -1
		for _, c := range byHash[h] {
			if types.CompareRows(groups[c].first, row, f.keys) == 0 {
				g = c
				break
			}
		}
		if g < 0 {
			g = len(groups)
			accs := make([]expr.Accumulator, len(f.parts))
			for i, p := range f.parts {
				accs[i] = p.agg.NewAccumulator()
			}
			groups = append(groups, group{first: row, accs: accs})
			byHash[h] = append(byHash[h], g)
		}
		for i, p := range f.parts {
			if p.arg == nil {
				groups[g].accs[i].Add(types.NewInt(1)) // COUNT(*): any non-null
				continue
			}
			v, err := p.arg(row, nil)
			if err != nil {
				return nil, err
			}
			groups[g].accs[i].Add(v)
		}
	}

	out := make([]types.Row, len(groups))
	for i, g := range groups {
		row := make(types.Row, 0, len(f.keys)+len(g.accs))
		for _, k := range f.keys {
			row = append(row, g.first[k])
		}
		for _, acc := range g.accs {
			row = append(row, acc.Result())
		}
		out[i] = row
	}
	return out, nil
}

// Incremental reports whether INSERT maintenance can fold deltas locally:
// the definition must read a single relation, so one inserted row maps to
// exactly one group's partial delta. Multi-relation definitions join the
// new rows against other tables and fall back to a full refresh.
func (d *Def) Incremental() bool { return len(d.Block.Rels) == 1 }

// Delta folds newly inserted base-table rows into backing-table delta
// rows: the definition's filter is applied, survivors are grouped, and
// each group's partial aggregates are computed. Appending the returned
// rows to the backing table maintains the view exactly, because every
// reader of the backing table — the rewrite's plans and Merge — coalesces
// the partials of a group. Only valid when Incremental().
//
// The compiled filter and evaluators are kept on the Def, so a holder that
// calls Delta repeatedly compiles once; a Def is therefore not safe for
// use from several goroutines.
func (d *Def) Delta(rows []types.Row) ([]types.Row, error) {
	if d.delta == nil {
		f, err := d.compileDelta()
		if err != nil {
			return nil, err
		}
		d.delta = f
	}
	return d.delta.run(rows)
}

func (d *Def) compileDelta() (*fold, error) {
	if !d.Incremental() {
		return nil, fmt.Errorf("materialized view %q: delta maintenance requires a single-table definition", d.Name)
	}
	rs := d.Block.Rels[0].Schema()
	keep, err := expr.CompilePredicate(expr.AndAll(d.Block.Conjs), rs)
	if err != nil {
		return nil, err
	}
	f := &fold{keep: keep}
	for _, g := range d.Groups {
		i, err := rs.IndexOf(g.Src)
		if err != nil {
			return nil, err
		}
		f.keys = append(f.keys, i)
	}
	for _, sa := range d.Aggs {
		for _, p := range sa.Parts {
			part := foldPart{agg: p.Part.Partial}
			if p.Part.Partial.Arg != nil {
				if part.arg, err = expr.Compile(p.Part.Partial.Arg, rs); err != nil {
					return nil, err
				}
			}
			f.parts = append(f.parts, part)
		}
	}
	return f, nil
}

// Merge folds backing-table rows into one row per stored group: each
// partial column is accumulated with its Coalesce function — simple
// coalescing grouping (§4.2) applied to the store instead of at query
// time. The result answers every rewrite exactly as the input did, so a
// backing table may be replaced by its Merge at any moment. Merge is
// idempotent, and Merge(a ++ b) = Merge(Merge(a) ++ b).
func (d *Def) Merge(rows []types.Row) ([]types.Row, error) {
	if d.merge == nil {
		f := &fold{}
		for i := range d.Groups {
			f.keys = append(f.keys, i)
		}
		for _, sa := range d.Aggs {
			for _, p := range sa.Parts {
				col := len(f.keys) + len(f.parts)
				f.parts = append(f.parts, foldPart{
					agg: expr.Agg{Kind: p.Part.Coalesce},
					arg: func(row types.Row, _ []types.Value) (types.Value, error) { return row[col], nil },
				})
			}
		}
		d.merge = f
	}
	return d.merge.run(rows)
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
		row, _, ok, err := sc.Next()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		stored = append(stored, row)
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
