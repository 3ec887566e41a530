// Package lplan defines the operator trees the optimizer manipulates.
//
// Following the paper (Section 2), a plan is a tree of scan, join and
// group-by operators; projection is not an explicit operator but an
// annotation (a list of projection columns) on joins and group-bys. A
// Project node exists only to compute final output expressions (and the
// rebuild expressions of decomposed aggregates); it never participates in
// reordering.
//
// Trees are immutable by convention: transformations build new nodes and
// share untouched subtrees. Physical decisions (join method, aggregation
// method) are annotations on the logical nodes, so an "execution plan" in
// the paper's sense — an operator tree with a chosen evaluation strategy —
// is one of these trees with its Method fields filled in.
package lplan

import (
	"fmt"
	"strings"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// TIDColumn is the name of the synthesized tuple-id column a scan can
// expose. The pull-up transformation uses it as a surrogate key when a
// relation has no declared primary key (paper, Section 3: "the query engine
// can use the internal tuple id as a key").
const TIDColumn = "$tid"

// Node is one operator of a plan tree.
type Node interface {
	// Schema returns the operator's output schema.
	Schema() schema.Schema
	// Children returns the operator's inputs, left to right.
	Children() []Node
	// Describe renders a one-line description for EXPLAIN output.
	Describe() string
}

// JoinMethod selects the physical join algorithm.
type JoinMethod int

// Join algorithms.
const (
	JoinUnset   JoinMethod = iota
	JoinHash               // build on the smaller input, Grace partitioning on overflow
	JoinBlockNL            // block nested loops, inner rescanned per outer block
	JoinMerge              // merge join over sorted inputs
)

// String renders the method.
func (m JoinMethod) String() string {
	switch m {
	case JoinUnset:
		return "?"
	case JoinHash:
		return "hash"
	case JoinBlockNL:
		return "block-nl"
	case JoinMerge:
		return "merge"
	default:
		return fmt.Sprintf("JoinMethod(%d)", int(m))
	}
}

// AggMethod selects the physical aggregation algorithm.
type AggMethod int

// Aggregation algorithms.
const (
	AggUnset AggMethod = iota
	AggHash            // hash table of groups, spills when over budget
	AggSort            // sort by grouping columns, then stream
)

// String renders the method.
func (m AggMethod) String() string {
	switch m {
	case AggUnset:
		return "?"
	case AggHash:
		return "hash"
	case AggSort:
		return "sort"
	default:
		return fmt.Sprintf("AggMethod(%d)", int(m))
	}
}

// NamedExpr is a computed output column.
type NamedExpr struct {
	E  expr.Expr
	As schema.ColID
}

// String renders "expr AS name".
func (n NamedExpr) String() string { return fmt.Sprintf("%s AS %s", n.E, n.As) }

// Scan reads a base table under an alias, applying pushed-down filters and
// a projection. If WithTID is set the output carries a trailing $tid column.
type Scan struct {
	Alias   string
	Table   *catalog.Table
	Filter  []expr.Expr    // conjuncts over this relation only
	Proj    []schema.ColID // nil means all columns
	WithTID bool

	schemaOnce schema.Schema
}

// Schema implements Node.
func (s *Scan) Schema() schema.Schema {
	if s.schemaOnce != nil {
		return s.schemaOnce
	}
	base := s.Table.Schema.Rename(s.Alias)
	if s.WithTID {
		base = append(base, schema.Column{
			ID:   schema.ColID{Rel: s.Alias, Name: TIDColumn},
			Type: types.KindInt,
		})
	}
	if s.Proj != nil {
		// An invalid projection is reported by Validate; Schema degrades to
		// the unprojected base so callers on the error path never panic.
		if out, err := base.Project(s.Proj); err == nil {
			base = out
		}
	}
	s.schemaOnce = base
	return base
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Describe implements Node.
func (s *Scan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan %s", s.Table.Name)
	if s.Alias != s.Table.Name {
		fmt.Fprintf(&b, " AS %s", s.Alias)
	}
	if len(s.Filter) > 0 {
		fmt.Fprintf(&b, " filter=%s", exprList(s.Filter))
	}
	if s.WithTID {
		b.WriteString(" +tid")
	}
	return b.String()
}

// JoinType distinguishes inner joins from the null-padding outer variants.
// The zero value is JoinInner, so plans built before outer joins existed
// are unchanged. JoinRight exists only for pre-planning structures (qblock
// outer steps); it never appears in a plan tree — the planner normalizes
// RIGHT to JoinLeft by swapping the inputs — and Validate rejects it.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft           // keep every left row; pad right columns with NULL on no match
	JoinRight          // keep every right row; normalized to JoinLeft before planning
	JoinFull           // keep every row of both sides, padding the other side
)

// String renders the join type.
func (t JoinType) String() string {
	switch t {
	case JoinInner:
		return "inner"
	case JoinLeft:
		return "left outer"
	case JoinRight:
		return "right outer"
	case JoinFull:
		return "full outer"
	default:
		return fmt.Sprintf("JoinType(%d)", int(t))
	}
}

// Outer reports whether the type null-pads unmatched rows.
func (t JoinType) Outer() bool { return t != JoinInner }

// Join combines two inputs under a conjunction of predicates and projects
// the listed columns (nil keeps everything).
//
// For an outer join (Type != JoinInner) Preds is the ON match condition:
// rows whose match predicate is not TRUE still appear, padded with NULLs on
// the unmatched side. Padded rows bypass Preds entirely, so Preds must not
// be treated as a filter by any transformation.
type Join struct {
	L, R   Node
	Type   JoinType
	Preds  []expr.Expr    // conjuncts spanning both sides (or residual filters; ON condition for outer)
	Proj   []schema.ColID // nil means concat of child schemas
	Method JoinMethod

	schemaOnce schema.Schema
}

// Schema implements Node.
func (j *Join) Schema() schema.Schema {
	if j.schemaOnce != nil {
		return j.schemaOnce
	}
	base := j.L.Schema().Concat(j.R.Schema())
	if j.Proj != nil {
		// See Scan.Schema: Validate reports the error, Schema never panics.
		if out, err := base.Project(j.Proj); err == nil {
			base = out
		}
	}
	j.schemaOnce = base
	return base
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// Describe implements Node.
func (j *Join) Describe() string {
	var b strings.Builder
	if j.Type.Outer() {
		fmt.Fprintf(&b, "Join[%s %s]", j.Type, j.Method)
	} else {
		fmt.Fprintf(&b, "Join[%s]", j.Method)
	}
	if len(j.Preds) > 0 {
		fmt.Fprintf(&b, " on %s", exprList(j.Preds))
	} else {
		b.WriteString(" cross")
	}
	return b.String()
}

// GroupBy groups the input on GroupCols, computes Aggs, filters groups by
// Having (which may reference aggregate outputs), and emits Outputs.
// A GroupBy with no grouping columns aggregates the whole input into one row.
type GroupBy struct {
	In        Node
	GroupCols []schema.ColID
	Aggs      []expr.Agg
	Having    []expr.Expr // conjuncts over grouping cols and agg outputs
	// Outputs computes the emitted columns from grouping columns and
	// aggregate outputs. Empty means: grouping columns then agg outputs.
	Outputs []NamedExpr
	Method  AggMethod

	schemaOnce schema.Schema
	innerOnce  schema.Schema // InnerSchema(), set by Freeze
}

// innerSchema is the schema Having and Outputs are resolved against over the
// given input schema: grouping columns followed by aggregate output columns.
func (g *GroupBy) innerSchema(in schema.Schema) schema.Schema {
	var s schema.Schema
	for _, c := range g.GroupCols {
		i, err := in.IndexOf(c)
		if err != nil || i < 0 {
			// Validate reports missing grouping columns; degrade to a
			// null-typed placeholder so Schema never panics on bad input.
			s = append(s, schema.Column{ID: c, Type: types.KindNull})
			continue
		}
		s = append(s, in[i])
	}
	for _, a := range g.Aggs {
		s = append(s, schema.Column{ID: a.Out, Type: a.ResultType(in)})
	}
	return s
}

// InnerSchema exposes the having/outputs resolution schema for the executor
// and the validator.
func (g *GroupBy) InnerSchema() schema.Schema {
	if g.innerOnce != nil {
		return g.innerOnce
	}
	return g.innerSchema(g.In.Schema())
}

// Schema implements Node.
func (g *GroupBy) Schema() schema.Schema {
	if g.schemaOnce == nil {
		g.schemaOnce = g.SchemaOver(g.In.Schema())
	}
	return g.schemaOnce
}

// SchemaOver returns the output schema the group-by would have over an
// input with the given schema; In is not read, so the optimizer can size a
// group-by it has described but not yet attached to a plan.
func (g *GroupBy) SchemaOver(in schema.Schema) schema.Schema {
	inner := g.innerSchema(in)
	if len(g.Outputs) == 0 {
		return inner
	}
	out := make(schema.Schema, len(g.Outputs))
	for i, ne := range g.Outputs {
		out[i] = schema.Column{ID: ne.As, Type: ne.E.Type(inner)}
	}
	return out
}

// Children implements Node.
func (g *GroupBy) Children() []Node { return []Node{g.In} }

// Describe implements Node.
func (g *GroupBy) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GroupBy[%s]", g.Method)
	if len(g.GroupCols) > 0 {
		b.WriteString(" by ")
		b.WriteString(colList(g.GroupCols))
	} else {
		b.WriteString(" (scalar)")
	}
	if len(g.Aggs) > 0 {
		parts := make([]string, len(g.Aggs))
		for i, a := range g.Aggs {
			parts[i] = a.String()
		}
		fmt.Fprintf(&b, " aggs=[%s]", strings.Join(parts, ", "))
	}
	if len(g.Having) > 0 {
		fmt.Fprintf(&b, " having=%s", exprList(g.Having))
	}
	return b.String()
}

// Project computes output expressions; it is the plan root for queries whose
// select list contains arithmetic, and the rebuild step for decomposed
// aggregates.
type Project struct {
	In    Node
	Items []NamedExpr

	schemaOnce schema.Schema
}

// Schema implements Node.
func (p *Project) Schema() schema.Schema {
	if p.schemaOnce != nil {
		return p.schemaOnce
	}
	in := p.In.Schema()
	out := make(schema.Schema, len(p.Items))
	for i, ne := range p.Items {
		out[i] = schema.Column{ID: ne.As, Type: ne.E.Type(in)}
	}
	p.schemaOnce = out
	return out
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.In} }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Items))
	for i, ne := range p.Items {
		parts[i] = ne.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Filter applies residual predicates above its input.
type Filter struct {
	In    Node
	Preds []expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema() schema.Schema { return f.In.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.In} }

// Describe implements Node.
func (f *Filter) Describe() string {
	return "Filter " + exprList(f.Preds)
}

// Sort orders the input by the given columns (ascending). It exists for
// ORDER BY and to feed merge joins and sort-aggregates.
type Sort struct {
	In Node
	By []schema.ColID
}

// Schema implements Node.
func (s *Sort) Schema() schema.Schema { return s.In.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.In} }

// Describe implements Node.
func (s *Sort) Describe() string {
	return "Sort by " + colList(s.By)
}

func exprList(es []expr.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, " AND ")
}

func colList(cs []schema.ColID) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, ", ")
}

// Format renders the tree as an indented multi-line EXPLAIN string.
func Format(n Node) string {
	var b strings.Builder
	format(&b, n, 0)
	return b.String()
}

func format(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Describe())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		format(b, c, depth+1)
	}
}

// Rels returns the set of relation-instance aliases contributing to the
// subtree. A GroupBy is a block boundary: it contributes the aliases of its
// output columns (its own view alias after binding), not its input's.
func Rels(n Node) map[string]bool {
	out := map[string]bool{}
	for _, c := range n.Schema() {
		out[c.ID.Rel] = true
	}
	return out
}

// BaseRels returns the aliases of all base-table scans anywhere under n,
// including inside group-by blocks.
func BaseRels(n Node) map[string]bool {
	out := map[string]bool{}
	var walk func(Node)
	walk = func(m Node) {
		if s, ok := m.(*Scan); ok {
			out[s.Alias] = true
		}
		for _, c := range m.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// Key infers a candidate key of the node's output, with ok=false when none
// can be derived. The rules follow standard key propagation:
//
//   - Scan: the table's primary key if it survives the projection
//     (the $tid column is always a key when present);
//   - Join: the union of the children's keys, if both have one and all key
//     columns survive the projection;
//   - GroupBy: the grouping columns, if they all survive Outputs unchanged;
//   - Project/Filter/Sort: the child's key if its columns survive.
func Key(n Node) (schema.Key, bool) {
	switch t := n.(type) {
	case *Scan:
		out := t.Schema().ColIDs()
		if t.WithTID {
			k := schema.Key{{Rel: t.Alias, Name: TIDColumn}}
			if k.CoveredBy(out) {
				return k, true
			}
		}
		k, ok := t.Table.Key(t.Alias)
		if !ok {
			return nil, false
		}
		if !k.CoveredBy(out) {
			return nil, false
		}
		return k, true

	case *Join:
		// Conservative for outer joins: padding can duplicate the NULL row
		// pattern for FULL joins and, more importantly, downstream legality
		// rules (pull-up, dpRemovable) must never treat a padded side's key
		// as a real key of the output.
		if t.Type.Outer() {
			return nil, false
		}
		lk, lok := Key(t.L)
		rk, rok := Key(t.R)
		if !lok || !rok {
			return nil, false
		}
		k := append(append(schema.Key{}, lk...), rk...)
		if !k.CoveredBy(t.Schema().ColIDs()) {
			return nil, false
		}
		return k, true

	case *GroupBy:
		// Grouping columns form a key of the grouped result; they survive
		// only if Outputs passes them through as bare column references.
		if len(t.GroupCols) == 0 {
			return nil, true // scalar aggregate: single row, empty key
		}
		if len(t.Outputs) == 0 {
			return append(schema.Key{}, t.GroupCols...), true
		}
		var k schema.Key
		for _, gc := range t.GroupCols {
			found := false
			for _, ne := range t.Outputs {
				if cr, isCol := ne.E.(*expr.ColRef); isCol && cr.ID == gc {
					k = append(k, ne.As)
					found = true
					break
				}
			}
			if !found {
				return nil, false
			}
		}
		return k, true

	case *Project:
		ck, ok := Key(t.In)
		if !ok {
			return nil, false
		}
		var k schema.Key
		for _, kc := range ck {
			found := false
			for _, ne := range t.Items {
				if cr, isCol := ne.E.(*expr.ColRef); isCol && cr.ID == kc {
					k = append(k, ne.As)
					found = true
					break
				}
			}
			if !found {
				return nil, false
			}
		}
		return k, true

	case *Filter:
		return Key(t.In)
	case *Sort:
		return Key(t.In)
	default:
		return nil, false
	}
}
