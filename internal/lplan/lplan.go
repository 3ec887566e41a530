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
	"slices"
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
	labelOnce  string // Describe(), set by Freeze
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
	if s.labelOnce != "" {
		return s.labelOnce
	}
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

// Input is a leaf whose rows the run supplies (exec.Executor.WithInput)
// instead of a table: a plan over it is compiled once and run over
// different rows. View maintenance groups inserted base rows, and a backing
// table's rows, through it. It reads no pages, and the optimizer never
// builds one.
type Input struct {
	Cols schema.Schema
}

// Schema implements Node.
func (i *Input) Schema() schema.Schema { return i.Cols }

// Children implements Node.
func (i *Input) Children() []Node { return nil }

// Describe implements Node.
func (i *Input) Describe() string { return "Input " + colList(i.Cols.ColIDs()) }

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
// A hash join builds its table on R and probes it with L. For an inner join
// the optimizer picks which input is R by cost; an outer hash join builds
// on R as written (a LEFT join's padded input).
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
	labelOnce  string // Describe(), set by Freeze
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

// EquiKeys splits j's conjuncts into the join keys and the residual rest. A
// bare equality between a column of each input is a key: l[i] is its left
// input's column and r[i] its right input's, in conjunct order.
func (j *Join) EquiKeys() (l, r []schema.ColID, residual []expr.Expr) {
	ls, rs := j.L.Schema(), j.R.Schema()
	for _, p := range j.Preds {
		if lc, rc, ok := expr.EquiJoin(p); ok {
			if !ls.Contains(lc) {
				lc, rc = rc, lc
			}
			if ls.Contains(lc) && rs.Contains(rc) {
				l, r = append(l, lc), append(r, rc)
				continue
			}
		}
		residual = append(residual, p)
	}
	return l, r, residual
}

// Describe implements Node.
func (j *Join) Describe() string {
	if j.labelOnce != "" {
		return j.labelOnce
	}
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
	// Groups is the cost model's estimate of the groups, which presizes a
	// hash aggregation's table; 0 when the plan carries none.
	Groups float64

	schemaOnce schema.Schema
	labelOnce  string        // Describe(), set by Freeze
	innerOnce  schema.Schema // InnerSchema(), set by Freeze
}

// innerSchema is the schema Having and Outputs are resolved against over the
// given input schema: grouping columns followed by aggregate output columns.
func (g *GroupBy) innerSchema(in schema.Schema) schema.Schema {
	s := make(schema.Schema, 0, len(g.GroupCols)+len(g.Aggs))
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
	if g.labelOnce != "" {
		return g.labelOnce
	}
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
	labelOnce  string // Describe(), set by Freeze
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
	if p.labelOnce != "" {
		return p.labelOnce
	}
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

// Sort orders the input by the given columns, each ascending unless its
// Desc entry is set (nil Desc = all ascending). The engine puts one on top of
// the chosen plan for ORDER BY.
type Sort struct {
	In   Node
	By   []schema.ColID
	Desc []bool
}

// Schema implements Node.
func (s *Sort) Schema() schema.Schema { return s.In.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.In} }

// Ascending reports whether no key is DESC (Desc nil or all false). Only an
// ascending sort leaves an order an operator can ask for.
func (s *Sort) Ascending() bool { return !slices.Contains(s.Desc, true) }

// Describe implements Node.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.By))
	for i, c := range s.By {
		parts[i] = c.String()
		if s.Desc != nil && s.Desc[i] {
			parts[i] += " DESC"
		}
	}
	return "Sort by " + strings.Join(parts, ", ")
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

// Order returns the order n's output is in (empty = none): the one rule the
// cost model charges by, the search keeps plans apart by, and the executor
// skips a sort on. An operator has an order only if the executor delivers
// it by construction, at every batch size, spilled or not:
//
//   - Filter keeps its input's order;
//   - a merge join has its left keys' (Join.EquiKeys), sort aggregation its
//     grouping columns', and an all-ascending Sort its keys';
//   - hash join (a Grace spill loses the probe order), block nested loops
//     (inner-major per outer block), hash aggregation, Project, Scan and
//     Input have none;
//   - under a Join.Proj or GroupBy.Outputs the order is cut at the first key
//     that does not pass through.
func Order(n Node) []schema.ColID {
	switch t := n.(type) {
	case *Filter:
		return Order(t.In)
	case *Sort:
		if t.Ascending() {
			return t.By
		}
	case *Join:
		if t.Method == JoinMerge {
			l, _, _ := t.EquiKeys()
			return JoinOrder(t.Method, l, t.Proj)
		}
	case *GroupBy:
		return GroupOrder(t.Method, t.GroupCols, t.Outputs)
	}
	return nil
}

// JoinOrder is Order for a join by method m whose left equi-join keys are
// lKeys, projected to proj (nil keeps every column).
func JoinOrder(m JoinMethod, lKeys, proj []schema.ColID) []schema.ColID {
	if m != JoinMerge {
		return nil
	}
	for i, k := range lKeys {
		if proj != nil && !slices.Contains(proj, k) {
			return lKeys[:i]
		}
	}
	return lKeys
}

// GroupOrder is Order for a group-by by method m on groupCols that emits
// outputs (nil emits the grouping columns first); a grouping column passes
// through Outputs as a bare column reference, under that output's name.
func GroupOrder(m AggMethod, groupCols []schema.ColID, outputs []NamedExpr) []schema.ColID {
	if m != AggSort {
		return nil
	}
	if len(outputs) == 0 {
		return groupCols
	}
	order := make([]schema.ColID, 0, len(groupCols))
	for _, gc := range groupCols {
		i := slices.IndexFunc(outputs, func(ne NamedExpr) bool {
			cr, ok := ne.E.(*expr.ColRef)
			return ok && cr.ID == gc
		})
		if i < 0 {
			break
		}
		order = append(order, outputs[i].As)
	}
	return order
}

// Covers reports whether an input in order have is already sorted on want:
// want is a prefix of have, in key order.
func Covers(have, want []schema.ColID) bool {
	return len(have) >= len(want) && slices.Equal(have[:len(want)], want)
}
