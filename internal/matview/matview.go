// Package matview implements materialized aggregate views: binding and
// validating a CREATE MATERIALIZED VIEW definition, deriving the backing
// table that stores the view's partial aggregates, computing incremental
// maintenance deltas on INSERT, and rewriting eligible queries to read the
// materialization instead of the base tables.
//
// The design follows the paper's decomposition machinery (§4.2): the view
// stores *partial* aggregate forms (SUM/COUNT/MIN/MAX components produced
// by expr.Agg.Decompose), never the finished values. That single choice
// buys three properties at once:
//
//   - Rollup rewrites: a query grouping by any subset of the view's
//     grouping columns re-aggregates the partials with their coalescing
//     functions (SUM of partial SUMs, MIN of partial MINs, ...), so one
//     materialization answers a whole lattice of group-bys.
//   - Derived aggregates: AVG is answered from SUM+COUNT partials, and any
//     decomposable user aggregate (e.g. STDDEV) from its registered parts.
//   - Incremental maintenance: inserted base rows fold into new partial
//     rows appended to the backing table, and the same coalescing applied
//     to the table itself merges a group's partials into one row whenever
//     the table has doubled, so the store is bounded by its groups and not
//     by its commit history (Def.Maintain). Both steps are plans the
//     executor runs; the package has no grouping code of its own.
package matview

import (
	"fmt"
	"sort"
	"strings"

	"aggview/internal/binder"
	"aggview/internal/catalog"
	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/sql"
	"aggview/internal/types"
)

// BackingSuffix distinguishes a view's backing table from user tables.
// '$' is a legal identifier rune in the SQL dialect, so the backing table
// is addressable (e.g. by ANALYZE) yet unlikely to collide.
const BackingSuffix = "$mv"

// BackingName returns the backing-table name for a view name.
func BackingName(view string) string { return strings.ToLower(view) + BackingSuffix }

// StoredGroup is one grouping column of the view: its source column in the
// definition's join schema and the backing-table column that stores it.
type StoredGroup struct {
	Src schema.ColID // definition column (alias-qualified)
	Col schema.ColID // backing-table column (Rel = backing table name)
	Typ types.Kind
}

// StoredPart is one partial-aggregate column of the view.
type StoredPart struct {
	Part expr.DecomposedPart // partial aggregate + coalescing function
	Col  schema.ColID        // backing-table column holding the partial
	Typ  types.Kind
}

// StoredAgg is one aggregate of the view definition with its decomposed
// storage layout.
type StoredAgg struct {
	Agg     expr.Agg // the definition aggregate (args alias-qualified)
	OutName string   // the definition's output name for the aggregate
	Parts   []StoredPart
}

// Def is a bound materialized-view definition: the canonical block plus
// the derived backing-table layout. Defs are rebuilt from the catalog's
// SQL text whenever needed (binding is cheap next to optimization) so the
// catalog stays free of parsed representations.
type Def struct {
	Name    string
	SQL     string // the defining SELECT, as the catalog stores it
	Backing string
	Block   *qblock.Block // definition block (single-block, grouped)
	Groups  []StoredGroup
	Aggs    []StoredAgg
	// BaseTables are the base tables the definition reads, sorted.
	BaseTables []string

	// delta and merge are the compiled programs behind Delta and Merge,
	// built on first use.
	delta, merge *exec.Program
}

// Bind parses and binds a view definition against the catalog and derives
// the backing layout. It enforces the eligibility rules for
// materialization:
//
//   - single-block SELECT over base tables only (no views, no subqueries
//     surviving flattening, no parameters);
//   - GROUP BY with at least one grouping column and at least one
//     aggregate, all aggregates decomposable;
//   - every grouping column and every aggregate appears as a bare output
//     column, and nothing else does;
//   - no HAVING, ORDER BY, LIMIT or DISTINCT.
//
// Requiring a non-empty GROUP BY is a correctness rule, not a
// convenience: a grand-total view would need to materialize one row even
// for an empty base table (COUNT(*) = 0), and every backing group must
// come from at least one base row for the coalescing rewrite to be exact.
func Bind(cat catalog.Reader, name, sqlText string) (*Def, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, fmt.Errorf("materialized view %q: %w", name, err)
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("materialized view %q: definition is not a SELECT", name)
	}
	if sql.CountParams(sel) > 0 {
		return nil, fmt.Errorf("materialized view %q: definition cannot contain parameter placeholders", name)
	}
	bound, err := binder.BindSelect(cat, sel)
	if err != nil {
		return nil, fmt.Errorf("materialized view %q: %w", name, err)
	}
	if len(bound.Query.Views) > 0 {
		return nil, fmt.Errorf("materialized view %q: definition must be a single query block over base tables", name)
	}
	if len(bound.OrderBy) > 0 || bound.Limit >= 0 {
		return nil, fmt.Errorf("materialized view %q: ORDER BY/LIMIT are not allowed in the definition", name)
	}
	blk := bound.Query.Top
	if len(blk.OuterSteps) > 0 {
		// An outer-join definition would store groups built over NULL-padded
		// rows; the rewrite matcher reasons only about inner-join/filter
		// semantics, so such views are not materializable.
		return nil, fmt.Errorf("materialized view %q: outer joins are not allowed in the definition", name)
	}
	if len(blk.GroupCols) == 0 || len(blk.Aggs) == 0 {
		return nil, fmt.Errorf("materialized view %q: definition must GROUP BY at least one column and compute at least one aggregate", name)
	}
	if len(blk.Having) > 0 {
		return nil, fmt.Errorf("materialized view %q: HAVING is not allowed in the definition (filter groups in the querying statement instead)", name)
	}
	d := &Def{Name: strings.ToLower(name), SQL: sqlText, Backing: BackingName(name), Block: blk}

	js := blk.JoinSchema()
	groupSet := map[schema.ColID]bool{}
	for _, gc := range blk.GroupCols {
		groupSet[gc] = true
	}
	aggByOut := map[schema.ColID]expr.Agg{}
	for _, a := range blk.Aggs {
		aggByOut[a.Out] = a
	}
	coveredGroups := map[schema.ColID]bool{}
	for _, ne := range blk.Outputs {
		cr, isCol := ne.E.(*expr.ColRef)
		if !isCol {
			return nil, fmt.Errorf("materialized view %q: output %q must be a bare grouping column or aggregate", name, ne.As.Name)
		}
		if groupSet[cr.ID] {
			i, err := js.IndexOf(cr.ID)
			if err != nil || i < 0 {
				return nil, fmt.Errorf("materialized view %q: grouping column %s unknown", name, cr.ID)
			}
			d.Groups = append(d.Groups, StoredGroup{
				Src: cr.ID,
				Col: schema.ColID{Rel: d.Backing, Name: ne.As.Name},
				Typ: js[i].Type,
			})
			coveredGroups[cr.ID] = true
			continue
		}
		a, isAgg := aggByOut[cr.ID]
		if !isAgg {
			return nil, fmt.Errorf("materialized view %q: output %q must be a bare grouping column or aggregate", name, ne.As.Name)
		}
		if !a.Decomposable() {
			return nil, fmt.Errorf("materialized view %q: aggregate %s is not decomposable and cannot be materialized incrementally", name, a)
		}
		parts, _, err := a.DecomposeAgg()
		if err != nil {
			return nil, fmt.Errorf("materialized view %q: %w", name, err)
		}
		sa := StoredAgg{Agg: a, OutName: ne.As.Name}
		for _, p := range parts {
			// Decompose names partial outputs by suffixing the aggregate's
			// output id; rebase the suffix onto the view's output name so
			// backing columns read naturally (total$sum, total$cnt, ...).
			suffix := strings.TrimPrefix(p.Partial.Out.Name, a.Out.Name)
			sa.Parts = append(sa.Parts, StoredPart{
				Part: p,
				Col:  schema.ColID{Rel: d.Backing, Name: ne.As.Name + suffix},
				Typ:  p.Partial.ResultType(js),
			})
		}
		d.Aggs = append(d.Aggs, sa)
	}
	for _, gc := range blk.GroupCols {
		if !coveredGroups[gc] {
			return nil, fmt.Errorf("materialized view %q: grouping column %s must appear in the output list", name, gc)
		}
	}
	if len(d.Aggs) == 0 {
		return nil, fmt.Errorf("materialized view %q: at least one aggregate must appear in the output list", name)
	}
	seen := map[string]bool{}
	for _, t := range blk.Rels {
		if !seen[t.Table.Name] {
			seen[t.Table.Name] = true
			d.BaseTables = append(d.BaseTables, t.Table.Name)
		}
	}
	sort.Strings(d.BaseTables)
	return d, nil
}

// BindCatalog rebinds a catalog MatView entry into a Def.
func BindCatalog(cat catalog.Reader, mv *catalog.MatView) (*Def, error) {
	return Bind(cat, mv.Name, mv.SQL)
}

// BackingSchema returns the backing table's column definitions in storage
// order: grouping columns, then each aggregate's partial columns.
func (d *Def) BackingSchema() []schema.Column {
	var cols []schema.Column
	for _, g := range d.Groups {
		cols = append(cols, schema.Column{ID: schema.ColID{Name: g.Col.Name}, Type: g.Typ})
	}
	for _, sa := range d.Aggs {
		for _, p := range sa.Parts {
			cols = append(cols, schema.Column{ID: schema.ColID{Name: p.Col.Name}, Type: p.Typ})
		}
	}
	return cols
}

// PartialQuery builds the query that computes the backing table's
// contents from the base tables: the definition block with every
// aggregate replaced by its partial forms and the outputs renamed to the
// backing columns. Running it (re)materializes the view.
func (d *Def) PartialQuery() *qblock.Query {
	blk := &qblock.Block{
		Rels:      d.Block.Rels,
		Conjs:     d.Block.Conjs,
		GroupCols: d.Block.GroupCols,
	}
	for _, g := range d.Groups {
		blk.Outputs = append(blk.Outputs, lplan.NamedExpr{E: expr.ColOf(g.Src), As: g.Col})
	}
	for _, sa := range d.Aggs {
		for _, p := range sa.Parts {
			blk.Aggs = append(blk.Aggs, p.Part.Partial)
			blk.Outputs = append(blk.Outputs, lplan.NamedExpr{E: expr.ColOf(p.Part.Partial.Out), As: p.Col})
		}
	}
	return &qblock.Query{Top: blk}
}

// Candidate is one view-backed plan alternative for a query.
type Candidate struct {
	Name string     // view name, for provenance
	Root lplan.Node // Scan(backing) → GroupBy(coalesce)
}

// Rewrite attempts to answer the bound query q from the view: the query's
// joins and predicates must match the definition (up to alias renaming and
// residual filters over stored grouping columns), its GROUP BY must be a
// rollup of the view's grouping set, and its aggregates must be derivable
// from the stored partials. On success it returns both hash- and
// sort-aggregation variants of the view-backed plan for the cost model to
// choose between; ok=false means the view cannot answer the query.
//
// The legality rules, in matching order:
//
//  1. The query is a single grouped block (no view references, at least
//     one GROUP BY column — an aggregate without grouping could face an
//     empty input, where coalescing zero partial rows diverges from the
//     base semantics of COUNT).
//  2. The query's FROM clause is exactly the definition's (a bijection of
//     relation instances by table).
//  3. Every definition predicate appears in the query (containment: the
//     view must not filter away rows the query needs).
//  4. Every remaining query predicate references only stored grouping
//     columns (so it filters whole groups and can run against the backing
//     table; predicates over non-stored columns would need base rows).
//  5. The query's grouping columns are a subset of the view's (rollup).
//  6. Every query aggregate decomposes into partials the view stores
//     (e.g. MIN(x) needs a stored MIN(x) partial; AVG(x) needs SUM(x)
//     and COUNT(x)).
func (d *Def) Rewrite(backing *catalog.Table, q *qblock.Query) (cands []Candidate, ok bool) {
	if len(q.Views) > 0 {
		return nil, false
	}
	b := q.Top
	if !b.HasGroupBy() || len(b.GroupCols) == 0 {
		return nil, false
	}
	if len(b.OuterSteps) > 0 {
		// The matcher below compares relation sets and WHERE conjuncts; an
		// outer-join query's padded rows have no counterpart in the stored
		// groups, so the view can never subsume it.
		return nil, false
	}
	rename, ok := matchRels(d.Block.Rels, b.Rels)
	if !ok {
		return nil, false
	}

	// Predicate containment: every definition conjunct (renamed into query
	// aliases) must appear among the query's conjuncts.
	queryConjs := map[string][]expr.Expr{}
	for _, c := range b.Conjs {
		k := conjKey(c)
		queryConjs[k] = append(queryConjs[k], c)
	}
	for _, c := range d.Block.Conjs {
		k := conjKey(expr.RenameRels(c, rename))
		bucket := queryConjs[k]
		if len(bucket) == 0 {
			return nil, false
		}
		queryConjs[k] = bucket[:len(bucket)-1]
	}

	// Map definition grouping sources (renamed) to backing columns.
	storedGroup := map[schema.ColID]schema.ColID{}
	for _, g := range d.Groups {
		src := g.Src
		if to, hit := rename[src.Rel]; hit {
			src = schema.ColID{Rel: to, Name: src.Name}
		}
		storedGroup[src] = g.Col
	}

	// Residual query predicates must reference only stored grouping
	// columns; rewrite them over the backing table.
	sub := map[schema.ColID]expr.Expr{}
	for qc, bc := range storedGroup {
		sub[qc] = expr.ColOf(bc)
	}
	var residual []expr.Expr
	for _, bucket := range queryConjs {
		for _, c := range bucket {
			for _, col := range expr.Columns(c) {
				if _, hit := storedGroup[col]; !hit {
					return nil, false
				}
			}
			residual = append(residual, expr.Substitute(c, sub))
		}
	}

	// Rollup: the query's grouping columns map into the stored set.
	var groupCols []schema.ColID
	for _, gc := range b.GroupCols {
		bc, hit := storedGroup[gc]
		if !hit {
			return nil, false
		}
		groupCols = append(groupCols, bc)
	}

	// Aggregate derivability: each query aggregate's partials must match
	// stored partials by function and (renamed) argument.
	stored := map[partID]schema.ColID{}
	for _, sa := range d.Aggs {
		for _, p := range sa.Parts {
			stored[partKeyOf(p.Part.Partial, rename)] = p.Col
		}
	}
	type coalKey struct {
		kind expr.AggKind
		col  schema.ColID
	}
	coalesceOut := map[coalKey]schema.ColID{}
	var coalesce []expr.Agg
	for _, qa := range b.Aggs {
		if !qa.Decomposable() {
			return nil, false
		}
		parts, final, err := qa.DecomposeAgg()
		if err != nil {
			return nil, false
		}
		finalSub := map[schema.ColID]expr.Expr{}
		for _, p := range parts {
			bc, hit := stored[partKeyOf(p.Partial, nil)]
			if !hit {
				return nil, false
			}
			ck := coalKey{kind: p.Coalesce, col: bc}
			out, have := coalesceOut[ck]
			if !have {
				out = schema.ColID{Rel: "$mv", Name: fmt.Sprintf("c$%d", len(coalesce))}
				coalesceOut[ck] = out
				coalesce = append(coalesce, expr.Agg{Kind: p.Coalesce, Arg: expr.ColOf(bc), Out: out})
			}
			finalSub[p.Partial.Out] = expr.ColOf(out)
		}
		sub[qa.Out] = expr.Substitute(final, finalSub)
	}

	// Project the backing scan to what the group-by consumes (grouping
	// columns and coalesce arguments); residual filters run before the
	// projection, so their columns need not survive it.
	needed := map[schema.ColID]bool{}
	var proj []schema.ColID
	addCol := func(id schema.ColID) {
		if !needed[id] {
			needed[id] = true
			proj = append(proj, id)
		}
	}
	for _, gc := range groupCols {
		addCol(gc)
	}
	for _, ca := range coalesce {
		for _, col := range expr.Columns(ca.Arg) {
			addCol(col)
		}
	}

	having := make([]expr.Expr, 0, len(b.Having))
	for _, h := range b.Having {
		having = append(having, expr.Substitute(h, sub))
	}
	outputs := make([]lplan.NamedExpr, len(b.Outputs))
	for i, ne := range b.Outputs {
		outputs[i] = lplan.NamedExpr{E: expr.Substitute(ne.E, sub), As: ne.As}
	}

	for _, m := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
		scan := &lplan.Scan{
			Alias:  d.Backing,
			Table:  backing,
			Filter: residual,
			Proj:   proj,
		}
		cands = append(cands, Candidate{Name: d.Name, Root: &lplan.GroupBy{
			In:        scan,
			GroupCols: groupCols,
			Aggs:      coalesce,
			Having:    having,
			Outputs:   outputs,
			Method:    m,
		}})
	}
	return cands, true
}

// partID identifies a partial aggregate for matching: the function (kind
// plus user-aggregate name) and the canonical rendering of its argument.
type partID struct {
	kind expr.AggKind
	user string
	arg  string
}

// partKeyOf renders an aggregate's identity for partial matching. rename,
// when non-nil, maps definition aliases into query aliases first.
func partKeyOf(a expr.Agg, rename map[string]string) partID {
	arg := ""
	if a.Arg != nil {
		e := a.Arg
		if rename != nil {
			e = expr.RenameRels(e, rename)
		}
		arg = e.String()
	}
	return partID{kind: a.Kind, user: a.User, arg: arg}
}

// matchRels finds a bijection between definition relations and query
// relations pairing instances of the same table, returning the alias
// renaming (definition alias → query alias). Backtracking handles
// self-joins (several instances of one table).
func matchRels(def []*qblock.Rel, query []*qblock.Rel) (map[string]string, bool) {
	if len(def) != len(query) {
		return nil, false
	}
	used := make([]bool, len(query))
	rename := map[string]string{}
	var assign func(i int) bool
	assign = func(i int) bool {
		if i == len(def) {
			return true
		}
		for j, qr := range query {
			if used[j] || qr.Table != def[i].Table {
				continue
			}
			used[j] = true
			rename[def[i].Alias] = qr.Alias
			if assign(i + 1) {
				return true
			}
			used[j] = false
			delete(rename, def[i].Alias)
		}
		return false
	}
	if !assign(0) {
		return nil, false
	}
	return rename, true
}

// conjKey renders a conjunct in a canonical form so structurally equal
// predicates compare equal across operand order: equality and inequality
// sort their operands, and >/>= flip into </<=.
func conjKey(e expr.Expr) string {
	c, isCmp := e.(*expr.Cmp)
	if !isCmp {
		return e.String()
	}
	l, r := c.L.String(), c.R.String()
	op := c.Op
	switch op {
	case expr.EQ, expr.NE:
		if r < l {
			l, r = r, l
		}
	case expr.GT, expr.GE:
		op = op.Flip()
		l, r = r, l
	}
	return fmt.Sprintf("%s %s %s", l, op, r)
}
