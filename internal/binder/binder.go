// Package binder resolves a parsed SELECT against the catalog and produces
// the paper's canonical multi-block form (qblock.Query, Figure 3):
//
//   - base tables and views become relations and aggregate-view blocks;
//   - SPJ views and derived tables are merged into the enclosing block
//     (traditional flattening: "if the views did not have any aggregates,
//     then the query is reduced to a single block query");
//   - views and derived tables *with* group-by/aggregation/DISTINCT become
//     AggView blocks joined in the top block;
//   - nested WHERE subqueries are unnested first via the flatten package.
//
// The binder also performs SQL semantic checks: name resolution and
// ambiguity, aggregate placement, the "non-aggregated select columns must
// be grouped" rule, and HAVING scoping.
package binder

import (
	"fmt"
	"strings"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/flatten"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/sql"
	"aggview/internal/types"
)

// OrderKey is one ORDER BY directive over the query's output columns.
type OrderKey struct {
	Col  int // output column position
	Desc bool
}

// Bound is a fully bound query: the canonical form the optimizer plans, the
// ORDER BY keys (a Sort over the chosen plan) and the LIMIT.
type Bound struct {
	Query    *qblock.Query
	ColNames []string // display names of the output columns
	OrderBy  []OrderKey
	Limit    int // -1 when absent

	// NumParams is the number of `?` placeholders in the statement; the
	// caller must supply exactly this many values at execution time.
	NumParams int
	// ParamTypes holds the kind inferred for each parameter slot from the
	// comparison it appears in (KindNull when unconstrained). Execution
	// checks supplied values against these, coercing int into float.
	ParamTypes []types.Kind
}

// maxViewDepth bounds view-expansion recursion.
const maxViewDepth = 16

// BindSelect flattens, resolves and canonicalizes a SELECT statement.
func BindSelect(cat catalog.Reader, sel *sql.Select) (*Bound, error) {
	nparams := sql.CountParams(sel)
	flat, err := flatten.Rewrite(sel)
	if err != nil {
		return nil, err
	}
	b := &binder{cat: cat, paramTypes: make([]types.Kind, nparams)}
	bound, err := b.bindTop(flat)
	if err != nil {
		return nil, err
	}
	bound.NumParams = nparams
	bound.ParamTypes = b.paramTypes
	return bound, nil
}

type binder struct {
	cat     catalog.Reader
	counter int
	// merged substitutes alias.col references of merged SPJ derived
	// tables by their defining expressions over the parent's relations.
	merged map[schema.ColID]expr.Expr
	// paramTypes collects the kind inferred for each parameter slot from
	// the comparisons it appears in (KindNull = unconstrained). Sized to
	// the statement's placeholder count up front.
	paramTypes []types.Kind
}

// noteParamType records a type hint for `col <op> ?` comparisons: when one
// side of a comparison is a parameter and the other side's kind resolves
// against the scope, the parameter slot adopts that kind (first hint wins).
func (b *binder) noteParamType(l, r expr.Expr, sc *scope) {
	p, isParam := l.(*expr.Param)
	other := r
	if !isParam {
		p, isParam = r.(*expr.Param)
		other = l
	}
	if !isParam || p.Idx < 0 || p.Idx >= len(b.paramTypes) || b.paramTypes[p.Idx] != types.KindNull {
		return
	}
	var s schema.Schema
	for _, e := range sc.entries {
		s = append(s, e.schema...)
	}
	if k := other.Type(s); k != types.KindNull {
		b.paramTypes[p.Idx] = k
	}
}

// fresh generates a unique relation alias for merged inner blocks.
func (b *binder) fresh(hint string) string {
	b.counter++
	return fmt.Sprintf("%s$%d", hint, b.counter)
}

// scopeEntry is one name source: a base relation or a view's output.
type scopeEntry struct {
	alias  string
	schema schema.Schema
}

type scope struct {
	entries []scopeEntry
}

func (s *scope) add(alias string, sch schema.Schema) error {
	for _, e := range s.entries {
		if e.alias == alias {
			return fmt.Errorf("bind: duplicate relation alias %q", alias)
		}
	}
	s.entries = append(s.entries, scopeEntry{alias: alias, schema: sch})
	return nil
}

// resolve maps a possibly-unqualified SQL name to a column identity.
func (s *scope) resolve(n sql.Name) (schema.ColID, error) {
	var found schema.ColID
	matches := 0
	for _, e := range s.entries {
		if n.Qual != "" && e.alias != n.Qual {
			continue
		}
		for _, c := range e.schema {
			if c.ID.Name == n.Col {
				found = c.ID
				matches++
			}
		}
	}
	switch matches {
	case 0:
		return schema.ColID{}, fmt.Errorf("bind: column %q not found", n)
	case 1:
		return found, nil
	default:
		return schema.ColID{}, fmt.Errorf("bind: column %q is ambiguous", n)
	}
}

// bindTop binds the outermost SELECT into a qblock.Query.
func (b *binder) bindTop(sel *sql.Select) (*Bound, error) {
	blk, views, err := b.bindBlock(sel, "", 0)
	if err != nil {
		return nil, err
	}
	q := &qblock.Query{Views: views, Top: blk}
	if err := q.Validate(); err != nil {
		return nil, err
	}

	bound := &Bound{Query: q, Limit: sel.Limit}
	for _, ne := range blk.Outputs {
		bound.ColNames = append(bound.ColNames, ne.As.Name)
	}

	// ORDER BY: resolve each key against the output column names (or
	// 1-based positions).
	for _, oi := range sel.OrderBy {
		pos := -1
		switch t := oi.E.(type) {
		case sql.Name:
			if t.Qual == "" {
				for i, name := range bound.ColNames {
					if name == t.Col {
						pos = i
						break
					}
				}
			}
		case sql.Lit:
			if t.Val.K == types.KindInt {
				p := int(t.Val.I) - 1
				if p >= 0 && p < len(bound.ColNames) {
					pos = p
				}
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("bind: ORDER BY key %s must name an output column or position", sql.ExprString(oi.E))
		}
		bound.OrderBy = append(bound.OrderBy, OrderKey{Col: pos, Desc: oi.Desc})
	}
	return bound, nil
}

// bindBlock binds one SELECT into a Block plus the aggregate views it
// joins. outAlias names the block's outputs ("" for the top block, the
// FROM alias for views/derived tables). depth guards view recursion.
func (b *binder) bindBlock(sel *sql.Select, outAlias string, depth int) (*qblock.Block, []*qblock.AggView, error) {
	if depth > maxViewDepth {
		return nil, nil, fmt.Errorf("bind: view nesting deeper than %d (cycle?)", maxViewDepth)
	}

	blk := &qblock.Block{}
	var views []*qblock.AggView
	sc := &scope{}
	var conjs []expr.Expr

	// Outer-join FROM chains bind as a fixed left-deep sequence of base
	// tables. Views, derived tables and subqueries cannot participate:
	// merging an SPJ view into a padded chain or joining an aggregate-view
	// block across a padding step would change which rows get padded.
	hasOuterFrom := false
	for _, fi := range sel.From {
		if fi.Join != sql.JoinNone {
			hasOuterFrom = true
			break
		}
	}
	if hasOuterFrom {
		if outAlias != "" {
			return nil, nil, fmt.Errorf("bind: outer joins are only supported in the top-level query block")
		}
		for i, fi := range sel.From {
			if fi.Subquery != nil {
				return nil, nil, fmt.Errorf("bind: derived table %q cannot appear in a FROM clause with outer joins", fi.Alias)
			}
			tbl, ok := b.cat.Table(fi.Table)
			if !ok {
				if _, isView := b.cat.View(fi.Table); isView {
					return nil, nil, fmt.Errorf("bind: view %q cannot appear in a FROM clause with outer joins", fi.Table)
				}
				if _, isMV := b.cat.MatView(fi.Table); isMV {
					return nil, nil, fmt.Errorf("bind: materialized view %q cannot appear in a FROM clause with outer joins", fi.Table)
				}
				return nil, nil, fmt.Errorf("bind: relation %q not found", fi.Table)
			}
			r := &qblock.Rel{Alias: fi.Alias, Table: tbl}
			blk.Rels = append(blk.Rels, r)
			if err := sc.add(fi.Alias, r.Schema()); err != nil {
				return nil, nil, err
			}
			if i == 0 {
				continue
			}
			step := qblock.OuterStep{Alias: fi.Alias, Type: bindJoinType(fi.Join)}
			if fi.On != nil {
				// ON resolves against everything joined so far, current
				// relation included. The conjuncts stay on the step: they
				// decide padding, they do not filter.
				on, err := b.scalarExpr(fi.On, sc)
				if err != nil {
					return nil, nil, err
				}
				step.On = expr.Conjuncts(on)
			}
			blk.OuterSteps = append(blk.OuterSteps, step)
		}
	}

	for _, fi := range sel.From {
		if hasOuterFrom {
			break
		}
		switch {
		case fi.Subquery != nil:
			flatSub, err := flatten.Rewrite(fi.Subquery)
			if err != nil {
				return nil, nil, err
			}
			if err := b.addDerived(blk, &views, sc, &conjs, flatSub, fi.Alias, depth); err != nil {
				return nil, nil, err
			}
		default:
			if tbl, ok := b.cat.Table(fi.Table); ok {
				r := &qblock.Rel{Alias: fi.Alias, Table: tbl}
				blk.Rels = append(blk.Rels, r)
				if err := sc.add(fi.Alias, r.Schema()); err != nil {
					return nil, nil, err
				}
				continue
			}
			var vsel *sql.Select
			var err error
			if vw, ok := b.cat.View(fi.Table); ok {
				vsel, err = viewDef("view", vw.Name, vw.SQL, vw.Cols)
			} else if mv, ok := b.cat.MatView(fi.Table); ok {
				vsel, err = viewDef("materialized view", mv.Name, mv.SQL, nil)
			} else {
				return nil, nil, fmt.Errorf("bind: relation %q not found", fi.Table)
			}
			if err != nil {
				return nil, nil, err
			}
			if err := b.addDerived(blk, &views, sc, &conjs, vsel, fi.Alias, depth+1); err != nil {
				return nil, nil, err
			}
		}
	}

	// WHERE.
	if sel.Where != nil {
		e, err := b.scalarExpr(sel.Where, sc)
		if err != nil {
			return nil, nil, err
		}
		conjs = append(conjs, expr.Conjuncts(e)...)
	}
	blk.Conjs = conjs

	// GROUP BY columns. A reference into a merged derived table resolves
	// through its defining expression, which must be a bare column.
	groupSet := map[schema.ColID]bool{}
	for _, g := range sel.GroupBy {
		id, err := sc.resolve(g)
		if err != nil {
			return nil, nil, err
		}
		if def, ok := b.merged[id]; ok {
			cr, isCol := def.(*expr.ColRef)
			if !isCol {
				return nil, nil, fmt.Errorf("bind: cannot GROUP BY computed derived-table column %s", g)
			}
			id = cr.ID
		}
		blk.GroupCols = append(blk.GroupCols, id)
		groupSet[id] = true
	}

	// Aggregates: collected from the select list and HAVING.
	agg := &aggCollector{binder: b, scope: sc, groupSet: groupSet, outAlias: outAlias}

	// Select items.
	star := false
	for _, item := range sel.Items {
		if item.Star {
			star = true
			continue
		}
		e, name, err := agg.bindItem(item)
		if err != nil {
			return nil, nil, err
		}
		as := schema.ColID{Rel: outAlias, Name: name}
		blk.Outputs = append(blk.Outputs, lplan.NamedExpr{E: e, As: as})
	}
	if star {
		if len(sel.GroupBy) > 0 || len(agg.aggs) > 0 {
			return nil, nil, fmt.Errorf("bind: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		var starOuts []lplan.NamedExpr
		for _, e := range sc.entries {
			for _, c := range e.schema {
				starOuts = append(starOuts, lplan.NamedExpr{
					E:  expr.ColOf(c.ID),
					As: schema.ColID{Rel: outAlias, Name: c.ID.Name},
				})
			}
		}
		// Star expands in FROM order, before explicit items.
		blk.Outputs = append(starOuts, blk.Outputs...)
	}

	// HAVING. Conjuncts referencing only grouping columns (no aggregate
	// outputs) are pushed into WHERE: every row of a group agrees on them,
	// so filtering rows before grouping filters exactly the same groups —
	// the Having push-down the paper's §4.1 relies on.
	if sel.Having != nil {
		if len(sel.GroupBy) == 0 {
			return nil, nil, fmt.Errorf("bind: HAVING requires GROUP BY")
		}
		h, err := agg.bindExpr(sel.Having)
		if err != nil {
			return nil, nil, err
		}
		for _, conj := range expr.Conjuncts(h) {
			refsAgg := false
			for _, col := range expr.Columns(conj) {
				if agg.isAggOut(col) {
					refsAgg = true
					break
				}
			}
			if refsAgg {
				blk.Having = append(blk.Having, conj)
			} else {
				blk.Conjs = append(blk.Conjs, conj)
			}
		}
	}

	blk.Aggs = agg.aggs

	// DISTINCT: for an SPJ block it becomes grouping by all outputs.
	if sel.Distinct {
		if blk.HasGroupBy() {
			return nil, nil, fmt.Errorf("bind: DISTINCT with GROUP BY is not supported")
		}
		for _, ne := range blk.Outputs {
			cr, ok := ne.E.(*expr.ColRef)
			if !ok {
				return nil, nil, fmt.Errorf("bind: DISTINCT over computed output %s is not supported", ne)
			}
			blk.GroupCols = append(blk.GroupCols, cr.ID)
		}
	}

	// SQL rule: non-aggregated output columns must be grouped.
	if blk.HasGroupBy() && len(groupSet) > 0 {
		for _, ne := range blk.Outputs {
			for _, col := range expr.Columns(ne.E) {
				if agg.isAggOut(col) {
					continue
				}
				if !groupSet[col] {
					return nil, nil, fmt.Errorf("bind: output column %s is neither grouped nor aggregated", col)
				}
			}
		}
	}

	// Enforce canonical-form uniqueness of output names.
	seen := map[string]bool{}
	for i := range blk.Outputs {
		name := blk.Outputs[i].As.Name
		for seen[name] {
			name = name + "_"
		}
		seen[name] = true
		blk.Outputs[i].As.Name = name
	}
	return blk, views, nil
}

// addDerived binds an inner SELECT used as a FROM item. SPJ blocks merge
// into the parent; aggregating blocks become AggViews.
func (b *binder) addDerived(parent *qblock.Block, views *[]*qblock.AggView, sc *scope, conjs *[]expr.Expr, sel *sql.Select, alias string, depth int) error {
	inner, innerViews, err := b.bindBlock(sel, alias, depth+1)
	if err != nil {
		return err
	}
	if sel.Limit >= 0 || len(sel.OrderBy) > 0 {
		return fmt.Errorf("bind: ORDER BY/LIMIT inside a view or derived table is not supported")
	}

	if !inner.HasGroupBy() {
		// SPJ view: merge into the parent block (single-block reduction).
		// Relations keep their (renamed-if-needed) aliases; output columns
		// become substitutions for alias.col references.
		if len(innerViews) > 0 {
			return fmt.Errorf("bind: derived table %q joins an aggregate view; nest it the other way or name the view directly", alias)
		}
		rename := map[string]string{}
		for _, r := range inner.Rels {
			newAlias := r.Alias
			if _, clash := parent.Rel(newAlias); clash || scopeHas(sc, newAlias) {
				newAlias = b.fresh(r.Alias)
			}
			rename[r.Alias] = newAlias
			parent.Rels = append(parent.Rels, &qblock.Rel{Alias: newAlias, Table: r.Table})
		}
		for _, c := range inner.Conjs {
			*conjs = append(*conjs, expr.RenameRels(c, rename))
		}
		// The derived table's outputs resolve as alias.name → renamed expr.
		var outSchema schema.Schema
		subs := map[schema.ColID]expr.Expr{}
		for _, ne := range inner.Outputs {
			renamed := expr.RenameRels(ne.E, rename)
			id := schema.ColID{Rel: alias, Name: ne.As.Name}
			subs[id] = renamed
			outSchema = append(outSchema, schema.Column{ID: id, Type: 0})
		}
		if err := sc.add(alias, outSchema); err != nil {
			return err
		}
		// Record the substitution for later name resolution.
		if b.merged == nil {
			b.merged = map[schema.ColID]expr.Expr{}
		}
		for k, v := range subs {
			b.merged[k] = v
		}
		return nil
	}

	// Aggregate view: becomes a block of its own. Its inner relation
	// aliases are private SQL scope, but the optimizer's phase-1 DP mixes
	// view relations with top-block relations in one namespace, so rename
	// them to globally unique aliases.
	if len(innerViews) > 0 {
		return fmt.Errorf("bind: aggregate view %q over another aggregate view is not supported (the paper assumes single-block views)", alias)
	}
	b.renameBlockRels(inner)
	if err := inner.Validate(); err != nil {
		return fmt.Errorf("bind: view %q: %w", alias, err)
	}
	*views = append(*views, &qblock.AggView{Alias: alias, Block: inner})
	if err := sc.add(alias, inner.OutputSchema()); err != nil {
		return err
	}
	return nil
}

// renameBlockRels rewrites every relation alias of the block to a fresh
// globally unique one, updating conjuncts, grouping columns, aggregate
// arguments, having predicates and output expressions.
func (b *binder) renameBlockRels(blk *qblock.Block) {
	m := map[string]string{}
	for _, r := range blk.Rels {
		m[r.Alias] = b.fresh(r.Alias)
	}
	for _, r := range blk.Rels {
		r.Alias = m[r.Alias]
	}
	for i, c := range blk.Conjs {
		blk.Conjs[i] = expr.RenameRels(c, m)
	}
	for i, gc := range blk.GroupCols {
		if to, ok := m[gc.Rel]; ok {
			blk.GroupCols[i] = schema.ColID{Rel: to, Name: gc.Name}
		}
	}
	for i, a := range blk.Aggs {
		blk.Aggs[i] = a.Rename(m)
	}
	for i, h := range blk.Having {
		blk.Having[i] = expr.RenameRels(h, m)
	}
	for i, ne := range blk.Outputs {
		blk.Outputs[i].E = expr.RenameRels(ne.E, m)
	}
}

// bindJoinType maps the AST join type onto the planner's. RIGHT survives
// here; the optimizer normalizes it to LEFT by swapping inputs.
func bindJoinType(t sql.JoinType) lplan.JoinType {
	switch t {
	case sql.JoinLeft:
		return lplan.JoinLeft
	case sql.JoinRight:
		return lplan.JoinRight
	case sql.JoinFull:
		return lplan.JoinFull
	default:
		return lplan.JoinInner
	}
}

func scopeHas(sc *scope, alias string) bool {
	for _, e := range sc.entries {
		if e.alias == alias {
			return true
		}
	}
	return false
}

// viewDef parses the definition of a view named in FROM, kind "view" or
// "materialized view", and returns it flattened, its items renamed by the
// view's column list when it declares one. A materialized view binds
// through its definition exactly like an ordinary view: the semantics are
// always the recomputed result, and whether the plan reads the
// materialization is the optimizer's cost-based decision, made later
// against the backing table.
func viewDef(kind, name, def string, cols []string) (*sql.Select, error) {
	stmt, err := sql.Parse(def)
	if err != nil {
		return nil, fmt.Errorf("bind: %s %q definition: %w", kind, name, err)
	}
	vsel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("bind: %s %q is not a SELECT", kind, name)
	}
	if sql.CountParams(vsel) > 0 {
		return nil, fmt.Errorf("bind: %s %q contains parameter placeholders; views must be parameter-free", kind, name)
	}
	if vsel, err = flatten.Rewrite(vsel); err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		return vsel, nil
	}
	if len(cols) != len(vsel.Items) {
		return nil, fmt.Errorf("bind: %s %q declares %d columns but selects %d", kind, name, len(cols), len(vsel.Items))
	}
	return cloneSelectWithAliases(vsel, cols), nil
}

func cloneSelectWithAliases(sel *sql.Select, cols []string) *sql.Select {
	out := *sel
	out.Items = append([]sql.SelectItem{}, sel.Items...)
	for i := range out.Items {
		out.Items[i].Alias = strings.ToLower(cols[i])
	}
	return &out
}

// scalarExpr converts an AST expression that must not contain aggregates.
func (b *binder) scalarExpr(e sql.Expr, sc *scope) (expr.Expr, error) {
	return b.convert(e, sc, nil)
}

// convert translates a sql.Expr; agg (when non-nil) handles aggregate
// calls, otherwise they are rejected.
func (b *binder) convert(e sql.Expr, sc *scope, agg *aggCollector) (expr.Expr, error) {
	switch t := e.(type) {
	case sql.Name:
		id, err := sc.resolve(t)
		if err != nil {
			return nil, err
		}
		if b.merged != nil {
			if def, ok := b.merged[id]; ok {
				return def, nil
			}
		}
		return expr.ColOf(id), nil

	case sql.Lit:
		return expr.Lit(t.Val), nil

	case sql.Param:
		if t.Idx < 0 || t.Idx >= len(b.paramTypes) {
			return nil, fmt.Errorf("bind: parameter ?%d out of range (placeholders are counted per statement; views cannot contain parameters)", t.Idx+1)
		}
		return expr.NewParam(t.Idx), nil

	case sql.Bin:
		l, err := b.convert(t.L, sc, agg)
		if err != nil {
			return nil, err
		}
		r, err := b.convert(t.R, sc, agg)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "AND":
			return expr.And(l, r), nil
		case "OR":
			return expr.Or(l, r), nil
		case "=":
			b.noteParamType(l, r, sc)
			return expr.NewCmp(expr.EQ, l, r), nil
		case "<>":
			b.noteParamType(l, r, sc)
			return expr.NewCmp(expr.NE, l, r), nil
		case "<":
			b.noteParamType(l, r, sc)
			return expr.NewCmp(expr.LT, l, r), nil
		case "<=":
			b.noteParamType(l, r, sc)
			return expr.NewCmp(expr.LE, l, r), nil
		case ">":
			b.noteParamType(l, r, sc)
			return expr.NewCmp(expr.GT, l, r), nil
		case ">=":
			b.noteParamType(l, r, sc)
			return expr.NewCmp(expr.GE, l, r), nil
		case "+":
			return expr.NewArith(expr.Add, l, r), nil
		case "-":
			return expr.NewArith(expr.Sub, l, r), nil
		case "*":
			return expr.NewArith(expr.Mul, l, r), nil
		case "/":
			return expr.NewArith(expr.Div, l, r), nil
		default:
			return nil, fmt.Errorf("bind: unknown operator %q", t.Op)
		}

	case sql.Not:
		inner, err := b.convert(t.E, sc, agg)
		if err != nil {
			return nil, err
		}
		return expr.NewNot(inner), nil

	case sql.IsNull:
		inner, err := b.convert(t.E, sc, agg)
		if err != nil {
			return nil, err
		}
		return expr.NewIsNull(inner, t.Neg), nil

	case sql.Neg:
		inner, err := b.convert(t.E, sc, agg)
		if err != nil {
			return nil, err
		}
		return expr.NewArith(expr.Sub, expr.IntLit(0), inner), nil

	case sql.Call:
		if expr.IsScalarFn(t.Func) {
			if len(t.Args) != 1 || t.Star {
				return nil, fmt.Errorf("bind: %s takes exactly one argument", t.Func)
			}
			arg, err := b.convert(t.Args[0], sc, agg)
			if err != nil {
				return nil, err
			}
			return expr.NewFn(t.Func, arg), nil
		}
		kind, isAgg := expr.AggKindByName(t.Func)
		if !isAgg {
			if _, isUser := expr.LookupUserAggregate(t.Func); isUser {
				kind = expr.AggUser
			} else {
				return nil, fmt.Errorf("bind: unknown function %q", t.Func)
			}
		}
		if agg == nil {
			return nil, fmt.Errorf("bind: aggregate %s not allowed here", t.Func)
		}
		return agg.addCall(t, kind)

	case sql.Subquery, sql.InSubquery, sql.ExistsSubquery:
		return nil, fmt.Errorf("bind: unflattened subquery reached the binder (unsupported position)")

	default:
		return nil, fmt.Errorf("bind: unsupported expression %T", e)
	}
}

// merged holds substitutions from merged SPJ derived tables.
// (field declared on binder below for proximity to its use)

// aggCollector accumulates aggregate calls of one block, deduplicating
// identical calls, and rewrites expressions to reference their outputs.
type aggCollector struct {
	binder   *binder
	scope    *scope
	groupSet map[schema.ColID]bool
	outAlias string
	aggs     []expr.Agg
	outs     map[schema.ColID]bool
}

// addCall registers an aggregate call and returns a reference to its
// output column.
func (a *aggCollector) addCall(call sql.Call, kind expr.AggKind) (expr.Expr, error) {
	var arg expr.Expr
	if call.Star {
		if kind != expr.AggCount {
			return nil, fmt.Errorf("bind: %s(*) is not valid", call.Func)
		}
		kind = expr.AggCountStar
	} else {
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("bind: %s takes exactly one argument", call.Func)
		}
		var err error
		arg, err = a.binder.convert(call.Args[0], a.scope, nil) // no nested aggregates
		if err != nil {
			return nil, err
		}
	}
	user := ""
	if kind == expr.AggUser {
		user = strings.ToLower(call.Func)
	}
	// Deduplicate identical calls.
	for _, existing := range a.aggs {
		if existing.Kind == kind && existing.User == user && exprEq(existing.Arg, arg) {
			return expr.ColOf(existing.Out), nil
		}
	}
	out := schema.ColID{Rel: "$agg", Name: fmt.Sprintf("%s$%d", strings.ToLower(call.Func), len(a.aggs))}
	if a.outAlias != "" {
		out.Rel = "$agg_" + a.outAlias
	}
	a.aggs = append(a.aggs, expr.Agg{Kind: kind, User: user, Arg: arg, Out: out})
	if a.outs == nil {
		a.outs = map[schema.ColID]bool{}
	}
	a.outs[out] = true
	return expr.ColOf(out), nil
}

func (a *aggCollector) isAggOut(id schema.ColID) bool { return a.outs[id] }

// bindItem binds one select item, returning the expression and its output
// name.
func (a *aggCollector) bindItem(item sql.SelectItem) (expr.Expr, string, error) {
	e, err := a.bindExpr(item.E)
	if err != nil {
		return nil, "", err
	}
	name := item.Alias
	if name == "" {
		if n, ok := item.E.(sql.Name); ok {
			name = n.Col
		} else if c, ok := item.E.(sql.Call); ok {
			name = strings.ToLower(c.Func)
		} else {
			name = fmt.Sprintf("col%d", len(a.aggs)+1)
		}
	}
	return e, strings.ToLower(name), nil
}

func (a *aggCollector) bindExpr(e sql.Expr) (expr.Expr, error) {
	return a.binder.convert(e, a.scope, a)
}

// exprEq compares expressions structurally via their rendering.
func exprEq(a, b expr.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}
