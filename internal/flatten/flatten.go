// Package flatten rewrites nested subqueries into joins with aggregate
// views, following Kim's unnesting technique [Kim82] as framed by the
// paper's introduction: "the result of Kim's transformation on a query
// with nested subqueries is a query that is a join of base tables and one
// or more aggregate views". After flattening, the optimizer's aggregate-
// view machinery (pull-up, push-down, two-phase enumeration) applies
// directly to the unnested query.
//
// Supported patterns:
//
//   - type A (uncorrelated scalar aggregate):
//     WHERE x > (SELECT AGG(y) FROM inner WHERE local)
//     → derived table (SELECT AGG(y) AS a FROM inner WHERE local) q,
//     predicate x > q.a;
//   - type JA (correlated aggregate):
//     WHERE x > (SELECT AGG(y) FROM inner WHERE inner.c = outer.c AND local)
//     → derived table (SELECT c, AGG(y) AS a FROM inner WHERE local GROUP
//     BY c) q, predicates q.c = outer.c AND x > q.a;
//   - type N/J (IN / EXISTS, correlated or not):
//     WHERE x IN (SELECT y FROM inner WHERE …)
//     → derived table (SELECT DISTINCT y, corr-cols FROM inner WHERE
//     local) q, predicates x = q.y AND corr equalities (a semijoin via
//     duplicate elimination).
//
// Unsupported cases are rejected with descriptive errors rather than
// silently mis-answered: COUNT aggregates in comparisons (the classic
// "count bug" needs outer joins, which the paper excludes), NOT IN / NOT
// EXISTS (antijoins), non-equality correlation predicates, and correlated
// references below another level of nesting.
package flatten

import (
	"fmt"

	"aggview/internal/expr"
	"aggview/internal/sql"
)

// Rewrite returns an equivalent Select with WHERE-clause subqueries
// flattened into derived tables in FROM. The input is not modified.
func Rewrite(sel *sql.Select) (*sql.Select, error) {
	f := &flattener{}
	return f.rewriteSelect(sel)
}

type flattener struct {
	counter int
}

func (f *flattener) freshAlias() string {
	f.counter++
	return fmt.Sprintf("q$%d", f.counter)
}

func (f *flattener) rewriteSelect(sel *sql.Select) (*sql.Select, error) {
	out := *sel
	out.From = append([]sql.FromItem{}, sel.From...)

	// Recurse into derived tables first.
	for i, fi := range out.From {
		if fi.Subquery != nil {
			sub, err := f.rewriteSelect(fi.Subquery)
			if err != nil {
				return nil, err
			}
			out.From[i].Subquery = sub
		}
	}

	// Outer-join FROM chains cannot absorb unnested subqueries: unnesting
	// appends a derived table to FROM, and a derived table cannot join
	// across a null-padding step. Reject up front with a clear error.
	hasOuterJoin := false
	for _, fi := range out.From {
		if fi.Join != sql.JoinNone {
			hasOuterJoin = true
		}
		if fi.On != nil && containsSubquery(fi.On) {
			return nil, fmt.Errorf("flatten: subquery in an outer-join ON clause is not supported")
		}
	}
	if hasOuterJoin && sel.Where != nil && containsSubquery(sel.Where) {
		return nil, fmt.Errorf("flatten: subquery unnesting into an outer-join FROM clause is not supported")
	}

	outerAliases := map[string]bool{}
	for _, fi := range out.From {
		outerAliases[fi.Alias] = true
	}

	if sel.Where != nil {
		w, err := f.rewriteBool(sel.Where, &out, outerAliases)
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	return &out, nil
}

// rewriteBool walks the boolean structure of a WHERE clause. Subqueries
// are only flattened at conjunctive positions: a subquery under OR or NOT
// cannot be turned into a join, and is rejected.
func (f *flattener) rewriteBool(e sql.Expr, out *sql.Select, outer map[string]bool) (sql.Expr, error) {
	switch t := e.(type) {
	case sql.Bin:
		if t.Op == "AND" {
			l, err := f.rewriteBool(t.L, out, outer)
			if err != nil {
				return nil, err
			}
			r, err := f.rewriteBool(t.R, out, outer)
			if err != nil {
				return nil, err
			}
			return sql.Bin{Op: "AND", L: l, R: r}, nil
		}
		if t.Op == "OR" {
			if containsSubquery(t) {
				return nil, fmt.Errorf("flatten: subquery under OR cannot be unnested")
			}
			return t, nil
		}
		// Comparison: scalar aggregate subqueries may appear anywhere in
		// either side's arithmetic (e.g. l.qty < 0.4 * (SELECT AVG…)).
		if countScalarSubqueries(t.L)+countScalarSubqueries(t.R) > 1 {
			return nil, fmt.Errorf("flatten: comparison between two subqueries is not supported")
		}
		l2, lPred, err := f.replaceScalarSubqueries(t.L, out, outer)
		if err != nil {
			return nil, err
		}
		r2, rPred, err := f.replaceScalarSubqueries(t.R, out, outer)
		if err != nil {
			return nil, err
		}
		return andWith(andWith(sql.Bin{Op: t.Op, L: l2, R: r2}, lPred), rPred), nil

	case sql.Not:
		if containsSubquery(t.E) {
			return nil, fmt.Errorf("flatten: NOT over a subquery (antijoin) is not supported; rewrite the query")
		}
		return t, nil

	case sql.InSubquery:
		if t.Neg {
			return nil, fmt.Errorf("flatten: NOT IN (antijoin) is not supported; rewrite the query")
		}
		return f.unnestIn(t, out, outer)

	case sql.ExistsSubquery:
		if t.Neg {
			return nil, fmt.Errorf("flatten: NOT EXISTS (antijoin) is not supported; rewrite the query")
		}
		return f.unnestExists(t, out, outer)

	default:
		if containsSubquery(e) {
			return nil, fmt.Errorf("flatten: subquery in unsupported position")
		}
		return e, nil
	}
}

// containsSubquery reports whether any subquery node occurs in the tree.
func containsSubquery(e sql.Expr) bool {
	switch t := e.(type) {
	case sql.Subquery, sql.InSubquery, sql.ExistsSubquery:
		return true
	case sql.Bin:
		return containsSubquery(t.L) || containsSubquery(t.R)
	case sql.Not:
		return containsSubquery(t.E)
	case sql.Neg:
		return containsSubquery(t.E)
	case sql.IsNull:
		return containsSubquery(t.E)
	case sql.Call:
		for _, a := range t.Args {
			if containsSubquery(a) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// scalarReplacement describes how a scalar subquery was replaced.
type scalarReplacement struct {
	operand  sql.Expr // the q$n.agg reference standing in for the subquery
	joinPred sql.Expr // correlation equalities to AND in (nil if none)
}

// countScalarSubqueries counts sql.Subquery nodes in a scalar expression.
func countScalarSubqueries(e sql.Expr) int {
	switch t := e.(type) {
	case sql.Subquery:
		return 1
	case sql.Bin:
		return countScalarSubqueries(t.L) + countScalarSubqueries(t.R)
	case sql.Neg:
		return countScalarSubqueries(t.E)
	case sql.Not:
		return countScalarSubqueries(t.E)
	case sql.IsNull:
		return countScalarSubqueries(t.E)
	case sql.Call:
		n := 0
		for _, a := range t.Args {
			n += countScalarSubqueries(a)
		}
		return n
	default:
		return 0
	}
}

// replaceScalarSubqueries replaces every sql.Subquery embedded in a scalar
// expression by a reference to its unnested derived table, returning the
// accumulated correlation join predicates.
func (f *flattener) replaceScalarSubqueries(e sql.Expr, out *sql.Select, outer map[string]bool) (sql.Expr, sql.Expr, error) {
	switch t := e.(type) {
	case sql.Subquery:
		repl, err := f.unnestScalar(t.Sel, out, outer)
		if err != nil {
			return nil, nil, err
		}
		return repl.operand, repl.joinPred, nil
	case sql.Bin:
		l, lp, err := f.replaceScalarSubqueries(t.L, out, outer)
		if err != nil {
			return nil, nil, err
		}
		r, rp, err := f.replaceScalarSubqueries(t.R, out, outer)
		if err != nil {
			return nil, nil, err
		}
		return sql.Bin{Op: t.Op, L: l, R: r}, andWith(lp, rp), nil
	case sql.Neg:
		inner, p, err := f.replaceScalarSubqueries(t.E, out, outer)
		if err != nil {
			return nil, nil, err
		}
		return sql.Neg{E: inner}, p, nil
	case sql.Call:
		if countScalarSubqueries(e) > 0 {
			return nil, nil, fmt.Errorf("flatten: subquery inside an aggregate argument is not supported")
		}
		return e, nil, nil
	default:
		if countScalarSubqueries(e) > 0 {
			return nil, nil, fmt.Errorf("flatten: subquery in unsupported position in %s", sql.ExprString(e))
		}
		return e, nil, nil
	}
}

// andWith conjoins two optional predicates.
func andWith(a, b sql.Expr) sql.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return sql.Bin{Op: "AND", L: a, R: b}
}

// unnestScalar handles type-A and type-JA subqueries: the subquery must be
// a single aggregate over a join of base tables / views, optionally
// correlated via equality predicates.
func (f *flattener) unnestScalar(sub *sql.Select, out *sql.Select, outer map[string]bool) (*scalarReplacement, error) {
	if len(sub.Items) != 1 || sub.Items[0].Star {
		return nil, fmt.Errorf("flatten: scalar subquery must select exactly one aggregate")
	}
	call, ok := sub.Items[0].E.(sql.Call)
	if !ok {
		return nil, fmt.Errorf("flatten: scalar subquery must select an aggregate function")
	}
	kind, isAgg := expr.AggKindByName(call.Func)
	if !isAgg {
		if _, isUser := expr.LookupUserAggregate(call.Func); !isUser {
			return nil, fmt.Errorf("flatten: %s is not a known aggregate", call.Func)
		}
		kind = expr.AggUser
	}
	if kind == expr.AggCount || kind == expr.AggCountStar || call.Star {
		return nil, fmt.Errorf("flatten: COUNT subqueries in comparisons hit the count bug and need outer joins, which this engine (like the paper) excludes")
	}
	if len(sub.GroupBy) > 0 || sub.Having != nil {
		return nil, fmt.Errorf("flatten: scalar subquery must not have its own GROUP BY or HAVING")
	}
	if containsSubquery(call) {
		return nil, fmt.Errorf("flatten: subquery nested inside an aggregate argument is not supported")
	}

	innerAliases := map[string]bool{}
	for _, fi := range sub.From {
		if fi.Subquery != nil {
			return nil, fmt.Errorf("flatten: nested derived tables inside a correlated subquery are not supported")
		}
		innerAliases[fi.Alias] = true
	}

	local, corr, err := splitCorrelation(sub.Where, innerAliases, outer)
	if err != nil {
		return nil, err
	}

	alias := f.freshAlias()
	view := &sql.Select{Limit: -1, From: sub.From}
	view.Where = local
	// Group by the inner side of each correlation equality; project those
	// columns then the aggregate.
	joinPred := sql.Expr(nil)
	for i, c := range corr {
		colAlias := fmt.Sprintf("c%d", i)
		view.GroupBy = append(view.GroupBy, c.inner)
		view.Items = append(view.Items, sql.SelectItem{E: c.inner, Alias: colAlias})
		eq := sql.Bin{Op: "=", L: sql.Name{Qual: alias, Col: colAlias}, R: c.outer}
		if joinPred == nil {
			joinPred = eq
		} else {
			joinPred = sql.Bin{Op: "AND", L: joinPred, R: eq}
		}
	}
	view.Items = append(view.Items, sql.SelectItem{E: call, Alias: "agg"})

	out.From = append(out.From, sql.FromItem{Subquery: view, Alias: alias})
	return &scalarReplacement{
		operand:  sql.Name{Qual: alias, Col: "agg"},
		joinPred: joinPred,
	}, nil
}

// unnestIn rewrites `x IN (SELECT y …)` into a duplicate-eliminating
// derived table joined on x = y plus correlation equalities.
func (f *flattener) unnestIn(in sql.InSubquery, out *sql.Select, outer map[string]bool) (sql.Expr, error) {
	sub := in.Sel
	if len(sub.Items) != 1 || sub.Items[0].Star {
		return nil, fmt.Errorf("flatten: IN subquery must select exactly one column")
	}
	if len(sub.GroupBy) > 0 || sub.Having != nil || sub.Distinct {
		return nil, fmt.Errorf("flatten: IN subquery with GROUP BY/HAVING/DISTINCT is not supported")
	}
	innerAliases := map[string]bool{}
	for _, fi := range sub.From {
		if fi.Subquery != nil {
			return nil, fmt.Errorf("flatten: nested derived tables inside IN subqueries are not supported")
		}
		innerAliases[fi.Alias] = true
	}
	local, corr, err := splitCorrelation(sub.Where, innerAliases, outer)
	if err != nil {
		return nil, err
	}

	alias := f.freshAlias()
	view := &sql.Select{Limit: -1, From: sub.From, Distinct: true, Where: local}
	view.Items = append(view.Items, sql.SelectItem{E: sub.Items[0].E, Alias: "v"})
	pred := sql.Expr(sql.Bin{Op: "=", L: in.L, R: sql.Name{Qual: alias, Col: "v"}})
	for i, c := range corr {
		colAlias := fmt.Sprintf("c%d", i)
		view.Items = append(view.Items, sql.SelectItem{E: c.inner, Alias: colAlias})
		pred = sql.Bin{Op: "AND", L: pred,
			R: sql.Bin{Op: "=", L: sql.Name{Qual: alias, Col: colAlias}, R: c.outer}}
	}
	out.From = append(out.From, sql.FromItem{Subquery: view, Alias: alias})
	return pred, nil
}

// unnestExists rewrites a correlated EXISTS into a semijoin on the
// correlation columns.
func (f *flattener) unnestExists(ex sql.ExistsSubquery, out *sql.Select, outer map[string]bool) (sql.Expr, error) {
	sub := ex.Sel
	if len(sub.GroupBy) > 0 || sub.Having != nil {
		return nil, fmt.Errorf("flatten: EXISTS subquery with GROUP BY/HAVING is not supported")
	}
	innerAliases := map[string]bool{}
	for _, fi := range sub.From {
		if fi.Subquery != nil {
			return nil, fmt.Errorf("flatten: nested derived tables inside EXISTS subqueries are not supported")
		}
		innerAliases[fi.Alias] = true
	}
	local, corr, err := splitCorrelation(sub.Where, innerAliases, outer)
	if err != nil {
		return nil, err
	}
	if len(corr) == 0 {
		return nil, fmt.Errorf("flatten: uncorrelated EXISTS is not supported (it is a constant predicate)")
	}

	alias := f.freshAlias()
	view := &sql.Select{Limit: -1, From: sub.From, Distinct: true, Where: local}
	var pred sql.Expr
	for i, c := range corr {
		colAlias := fmt.Sprintf("c%d", i)
		view.Items = append(view.Items, sql.SelectItem{E: c.inner, Alias: colAlias})
		eq := sql.Bin{Op: "=", L: sql.Name{Qual: alias, Col: colAlias}, R: c.outer}
		if pred == nil {
			pred = eq
		} else {
			pred = sql.Bin{Op: "AND", L: pred, R: eq}
		}
	}
	out.From = append(out.From, sql.FromItem{Subquery: view, Alias: alias})
	return pred, nil
}

// correlation is one equality between an inner column and an outer
// expression.
type correlation struct {
	inner sql.Name
	outer sql.Expr
}

// splitCorrelation partitions a subquery's WHERE conjuncts into local
// predicates (inner relations only) and correlation equalities. Any other
// reference to outer relations is rejected.
func splitCorrelation(where sql.Expr, inner, outer map[string]bool) (local sql.Expr, corr []correlation, err error) {
	if where == nil {
		return nil, nil, nil
	}
	var conjuncts []sql.Expr
	var collect func(e sql.Expr)
	collect = func(e sql.Expr) {
		if b, ok := e.(sql.Bin); ok && b.Op == "AND" {
			collect(b.L)
			collect(b.R)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	collect(where)

	for _, c := range conjuncts {
		refs := referencedQuals(c)
		usesOuter := false
		for q := range refs {
			if q != "" && !inner[q] {
				if outer[q] {
					usesOuter = true
				} else {
					return nil, nil, fmt.Errorf("flatten: predicate %s references unknown relation %q", sql.ExprString(c), q)
				}
			}
		}
		if !usesOuter {
			if local == nil {
				local = c
			} else {
				local = sql.Bin{Op: "AND", L: local, R: c}
			}
			continue
		}
		b, ok := c.(sql.Bin)
		if !ok || b.Op != "=" {
			return nil, nil, fmt.Errorf("flatten: correlation predicate %s must be an equality", sql.ExprString(c))
		}
		ln, lIsName := b.L.(sql.Name)
		rn, rIsName := b.R.(sql.Name)
		switch {
		case lIsName && inner[ln.Qual] && !refsAny(b.R, inner):
			corr = append(corr, correlation{inner: ln, outer: b.R})
		case rIsName && inner[rn.Qual] && !refsAny(b.L, inner):
			corr = append(corr, correlation{inner: rn, outer: b.L})
		default:
			return nil, nil, fmt.Errorf("flatten: correlation predicate %s must equate a qualified inner column with an outer expression", sql.ExprString(c))
		}
	}
	return local, corr, nil
}

// referencedQuals collects the qualifiers of all names in an expression.
func referencedQuals(e sql.Expr) map[string]bool {
	out := map[string]bool{}
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		switch t := e.(type) {
		case sql.Name:
			out[t.Qual] = true
		case sql.Bin:
			walk(t.L)
			walk(t.R)
		case sql.Not:
			walk(t.E)
		case sql.Neg:
			walk(t.E)
		case sql.IsNull:
			walk(t.E)
		case sql.Call:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// refsAny reports whether the expression references any of the aliases.
func refsAny(e sql.Expr, aliases map[string]bool) bool {
	for q := range referencedQuals(e) {
		if aliases[q] {
			return true
		}
	}
	return false
}
