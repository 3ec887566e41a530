// Package qblock represents queries in the paper's canonical form
// (Figure 3): a top block joining base relations B1..Bn and aggregate views
// Q1..Qm, optionally followed by a group-by G0; each aggregate view
// Qi = Gi(Vi) is a single-block SPJ query with a group-by.
//
// Blocks are the unit the optimization algorithms work on: the dynamic
// program enumerates join orders of a block's relations, the minimal
// invariant set is computed per view block, and the pull-up candidates
// Φ(Vi′, Wi) are synthesized as new blocks.
package qblock

import (
	"fmt"
	"slices"
	"strings"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
)

// Rel is one base-relation instance in a block.
type Rel struct {
	Alias string
	Table *catalog.Table
}

// Schema returns the relation's schema under its alias.
func (r *Rel) Schema() schema.Schema { return r.Table.Schema.Rename(r.Alias) }

// Key returns the relation's primary key under its alias.
func (r *Rel) Key() (schema.Key, bool) { return r.Table.Key(r.Alias) }

// OuterStep records how one FROM item joins the accumulated result of the
// items before it when the block contains outer joins. Steps are in FROM
// order: step i joins Rels[i+1] to the join of Rels[0..i].
type OuterStep struct {
	Alias string         // alias of the FROM item joined at this step (== Rels[i+1].Alias)
	Type  lplan.JoinType // JoinInner for comma/INNER JOIN steps, else the outer type
	On    []expr.Expr    // the step's ON conjuncts (nil for a comma step)
}

// Block is a single-block query: an SPJ core over Rels and Conjs, an
// optional group-by (GroupCols/Aggs/Having), and a select list (Outputs).
//
// When OuterSteps is non-empty the block's FROM is a join chain in syntax
// order (len(OuterSteps) == len(Rels)-1) and at least one step is an outer
// join. Every ON predicate lives on its step, never in Conjs: an outer
// join's decides null-padding, it does not filter, and an inner join's
// must apply before a later RIGHT or FULL step pads. The optimizer reorders
// such a block only where padding allows.
type Block struct {
	Rels       []*Rel
	Conjs      []expr.Expr // WHERE conjuncts: local filters and join predicates
	OuterSteps []OuterStep // non-empty iff the FROM chain contains an outer join
	GroupCols  []schema.ColID
	Aggs       []expr.Agg
	Having     []expr.Expr
	Outputs    []lplan.NamedExpr
}

// PaddedAliases returns the set of relation aliases whose columns may be
// NULL-padded by an outer join in this block: the inner side of each LEFT
// step, everything accumulated before a RIGHT step, and both sides of a
// FULL step. WHERE conjuncts over these aliases cannot be pushed below the
// padding join, and their aggregate args see NULLs (the COUNT bug).
func (b *Block) PaddedAliases() map[string]bool {
	padded := map[string]bool{}
	if len(b.OuterSteps) == 0 || len(b.Rels) == 0 {
		return padded
	}
	acc := []string{b.Rels[0].Alias}
	for _, s := range b.OuterSteps {
		switch s.Type {
		case lplan.JoinLeft:
			padded[s.Alias] = true
		case lplan.JoinRight:
			for _, a := range acc {
				padded[a] = true
			}
		case lplan.JoinFull:
			padded[s.Alias] = true
			for _, a := range acc {
				padded[a] = true
			}
		}
		acc = append(acc, s.Alias)
	}
	return padded
}

// HasGroupBy reports whether the block aggregates.
func (b *Block) HasGroupBy() bool { return len(b.GroupCols) > 0 || len(b.Aggs) > 0 }

// Rel returns the relation with the given alias.
func (b *Block) Rel(alias string) (*Rel, bool) {
	for _, r := range b.Rels {
		if r.Alias == alias {
			return r, true
		}
	}
	return nil, false
}

// Aliases returns the relation aliases in declaration order.
func (b *Block) Aliases() []string {
	out := make([]string, len(b.Rels))
	for i, r := range b.Rels {
		out[i] = r.Alias
	}
	return out
}

// JoinSchema returns the concatenated schema of all relations.
func (b *Block) JoinSchema() schema.Schema { return b.appendJoinSchema(nil, 0) }

// appendJoinSchema appends the join schema to dst, growing it once with
// room for extra more columns.
func (b *Block) appendJoinSchema(dst schema.Schema, extra int) schema.Schema {
	n := extra
	for _, r := range b.Rels {
		n += len(r.Table.Schema)
	}
	dst = slices.Grow(dst, n)
	for _, r := range b.Rels {
		dst = r.Table.Schema.AppendRenamed(dst, r.Alias)
	}
	return dst
}

// InnerSchema returns the schema Having and Outputs resolve against:
// the join schema for SPJ blocks, or grouping columns plus aggregate
// outputs for aggregating blocks.
func (b *Block) InnerSchema() schema.Schema { return b.innerSchemaOver(b.JoinSchema()) }

// innerSchemaOver is InnerSchema given the block's join schema, js.
func (b *Block) innerSchemaOver(js schema.Schema) schema.Schema {
	if !b.HasGroupBy() {
		return js
	}
	s := make(schema.Schema, 0, len(b.GroupCols)+len(b.Aggs))
	for _, gc := range b.GroupCols {
		i, err := js.IndexOf(gc)
		if err != nil || i < 0 {
			s = append(s, schema.Column{ID: gc})
			continue
		}
		s = append(s, js[i])
	}
	for _, a := range b.Aggs {
		s = append(s, schema.Column{ID: a.Out, Type: a.ResultType(js)})
	}
	return s
}

// OutputSchema returns the block's result schema.
func (b *Block) OutputSchema() schema.Schema {
	return b.appendOutputSchema(make(schema.Schema, 0, len(b.Outputs)), b.InnerSchema())
}

// appendOutputSchema appends the block's result columns, typed over its
// inner schema, to dst.
func (b *Block) appendOutputSchema(dst, inner schema.Schema) schema.Schema {
	for _, ne := range b.Outputs {
		dst = append(dst, schema.Column{ID: ne.As, Type: ne.E.Type(inner)})
	}
	return dst
}

// Validate checks internal consistency: relation aliases unique, conjunct
// and grouping columns resolvable, aggregate args resolvable, having over
// the inner schema, outputs over the inner schema.
func (b *Block) Validate() error {
	_, err := b.validate()
	return err
}

// validate is Validate, returning the block's inner schema when it holds.
func (b *Block) validate() (schema.Schema, error) {
	for i, r := range b.Rels {
		if slices.ContainsFunc(b.Rels[:i], func(o *Rel) bool { return o.Alias == r.Alias }) {
			return nil, fmt.Errorf("block: duplicate relation alias %q", r.Alias)
		}
	}
	var buf expr.ColumnBuf
	js := b.JoinSchema()
	for _, c := range b.Conjs {
		for _, col := range expr.AppendColumns(buf[:0], c) {
			i, err := js.IndexOf(col)
			if err != nil {
				return nil, fmt.Errorf("block conjunct %s: %w", c, err)
			}
			if i < 0 {
				return nil, fmt.Errorf("block conjunct %s: column %s unknown", c, col)
			}
		}
	}
	if len(b.OuterSteps) > 0 {
		if len(b.OuterSteps) != len(b.Rels)-1 {
			return nil, fmt.Errorf("block: %d outer-join steps for %d relations (want one per relation after the first)",
				len(b.OuterSteps), len(b.Rels))
		}
		for i, s := range b.OuterSteps {
			if s.Alias != b.Rels[i+1].Alias {
				return nil, fmt.Errorf("block: outer step %d joins %q, expected %q (FROM order)", i, s.Alias, b.Rels[i+1].Alias)
			}
			// In scope: the relations up to and including the step's.
			avail := b.Rels[:i+2]
			for _, c := range s.On {
				for _, col := range expr.AppendColumns(buf[:0], c) {
					if !slices.ContainsFunc(avail, func(r *Rel) bool { return r.Alias == col.Rel }) {
						return nil, fmt.Errorf("block: outer-join ON %s references %s, not yet in scope at step %d", c, col, i)
					}
					if j, err := js.IndexOf(col); err != nil || j < 0 {
						return nil, fmt.Errorf("block: outer-join ON %s: column %s unknown", c, col)
					}
				}
			}
		}
	}
	for _, gc := range b.GroupCols {
		i, err := js.IndexOf(gc)
		if err != nil || i < 0 {
			return nil, fmt.Errorf("block: grouping column %s unknown", gc)
		}
	}
	for _, a := range b.Aggs {
		if a.Arg == nil {
			if a.Kind != expr.AggCountStar {
				return nil, fmt.Errorf("block: aggregate %s lacks argument", a.Kind)
			}
			continue
		}
		for _, col := range expr.AppendColumns(buf[:0], a.Arg) {
			i, err := js.IndexOf(col)
			if err != nil || i < 0 {
				return nil, fmt.Errorf("block aggregate %s: column %s unknown", a, col)
			}
		}
	}
	inner := b.innerSchemaOver(js)
	for _, h := range b.Having {
		for _, col := range expr.AppendColumns(buf[:0], h) {
			i, err := inner.IndexOf(col)
			if err != nil || i < 0 {
				return nil, fmt.Errorf("block having %s: column %s not among grouping columns/aggregates", h, col)
			}
		}
	}
	if len(b.Outputs) == 0 {
		return nil, fmt.Errorf("block: no output columns")
	}
	for _, ne := range b.Outputs {
		for _, col := range expr.AppendColumns(buf[:0], ne.E) {
			i, err := inner.IndexOf(col)
			if err != nil || i < 0 {
				return nil, fmt.Errorf("block output %s: column %s unknown", ne, col)
			}
		}
	}
	if !b.HasGroupBy() && len(b.Having) > 0 {
		return nil, fmt.Errorf("block: HAVING without GROUP BY")
	}
	return inner, nil
}

// String renders a compact description for debugging.
func (b *Block) String() string {
	var sb strings.Builder
	sb.WriteString("Block{rels=[")
	sb.WriteString(strings.Join(b.Aliases(), ", "))
	sb.WriteString("]")
	if len(b.Conjs) > 0 {
		parts := make([]string, len(b.Conjs))
		for i, c := range b.Conjs {
			parts[i] = c.String()
		}
		sb.WriteString(" where=" + strings.Join(parts, " AND "))
	}
	if b.HasGroupBy() {
		gcs := make([]string, len(b.GroupCols))
		for i, g := range b.GroupCols {
			gcs[i] = g.String()
		}
		sb.WriteString(" group=[" + strings.Join(gcs, ", ") + "]")
	}
	sb.WriteString("}")
	return sb.String()
}

// AggView is one aggregate view joined in the top block. Its block's
// Outputs name columns under Alias, so top-block conjuncts reference
// Alias.col.
type AggView struct {
	Alias string
	Block *Block
}

// OutputSchema returns the view's result schema (columns under Alias).
func (v *AggView) OutputSchema() schema.Schema { return v.Block.OutputSchema() }

// Query is the canonical multi-block form of Figure 3.
type Query struct {
	Views []*AggView
	Top   *Block // Top.Rels are the base relations B; Top.Conjs may reference view aliases
}

// View returns the aggregate view with the given alias.
func (q *Query) View(alias string) (*AggView, bool) {
	for _, v := range q.Views {
		if v.Alias == alias {
			return v, true
		}
	}
	return nil, false
}

// Validate checks the query's canonical-form invariants.
func (q *Query) Validate() error {
	inners := make([]schema.Schema, len(q.Views))
	outCols := 0
	for i, v := range q.Views {
		if slices.ContainsFunc(q.Views[:i], func(o *AggView) bool { return o.Alias == v.Alias }) {
			return fmt.Errorf("query: duplicate view alias %q", v.Alias)
		}
		if !v.Block.HasGroupBy() {
			return fmt.Errorf("query: view %q is not an aggregate view (SPJ views must be flattened into the parent)", v.Alias)
		}
		inner, err := v.Block.validate()
		if err != nil {
			return fmt.Errorf("view %q: %w", v.Alias, err)
		}
		inners[i] = inner
		outCols += len(v.Block.Outputs)
	}
	// The top block's conjuncts/outputs may also reference view columns:
	// validate against the join schema extended with view output schemas.
	js := q.Top.appendJoinSchema(nil, outCols)
	for i, v := range q.Views {
		js = v.Block.appendOutputSchema(js, inners[i])
	}
	for _, r := range q.Top.Rels {
		if _, ok := q.View(r.Alias); ok {
			return fmt.Errorf("query: alias %q used for both a view and a base relation", r.Alias)
		}
	}
	var buf expr.ColumnBuf
	check := func(e expr.Expr, what string) error {
		for _, col := range expr.AppendColumns(buf[:0], e) {
			i, err := js.IndexOf(col)
			if err != nil {
				return fmt.Errorf("query %s %s: %w", what, e, err)
			}
			if i < 0 {
				return fmt.Errorf("query %s %s: column %s unknown", what, e, col)
			}
		}
		return nil
	}
	for _, c := range q.Top.Conjs {
		if err := check(c, "conjunct"); err != nil {
			return err
		}
	}
	for _, gc := range q.Top.GroupCols {
		i, err := js.IndexOf(gc)
		if err != nil || i < 0 {
			return fmt.Errorf("query: grouping column %s unknown", gc)
		}
	}
	for _, a := range q.Top.Aggs {
		if a.Arg != nil {
			if err := check(a.Arg, "aggregate"); err != nil {
				return err
			}
		}
	}
	// Having/Outputs resolve against the top block's inner schema, which
	// for a grouped top block is grouping+aggs; for an SPJ top block it is
	// the extended join schema.
	inner := q.Top.innerSchemaOver(js)
	for _, h := range q.Top.Having {
		for _, col := range expr.AppendColumns(buf[:0], h) {
			i, err := inner.IndexOf(col)
			if err != nil || i < 0 {
				return fmt.Errorf("query having %s: column %s unknown", h, col)
			}
		}
	}
	if len(q.Top.Outputs) == 0 {
		return fmt.Errorf("query: no output columns")
	}
	for _, ne := range q.Top.Outputs {
		for _, col := range expr.AppendColumns(buf[:0], ne.E) {
			i, err := inner.IndexOf(col)
			if err != nil || i < 0 {
				return fmt.Errorf("query output %s: column %s unknown", ne, col)
			}
		}
	}
	return nil
}

// OutputSchema returns the query's result schema.
func (q *Query) OutputSchema() schema.Schema {
	js := q.Top.JoinSchema()
	for _, v := range q.Views {
		js = js.Concat(v.OutputSchema())
	}
	return q.Top.appendOutputSchema(nil, q.Top.innerSchemaOver(js))
}
