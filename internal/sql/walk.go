package sql

// CountParams returns the number of `?` placeholders anywhere in the
// statement (select list, FROM subqueries, WHERE, HAVING, ORDER BY).
// Ordinals are dense, so the count equals max ordinal + 1.
func CountParams(sel *Select) int {
	n := 0
	WalkExprs(sel, func(e Expr) {
		if _, ok := e.(Param); ok {
			n++
		}
	})
	return n
}

// WalkExprs visits every expression node of the statement pre-order,
// descending into FROM derived tables and WHERE subqueries.
func WalkExprs(sel *Select, fn func(Expr)) {
	if sel == nil {
		return
	}
	for _, it := range sel.Items {
		walkExpr(it.E, fn)
	}
	for _, fi := range sel.From {
		WalkExprs(fi.Subquery, fn)
		walkExpr(fi.On, fn)
	}
	walkExpr(sel.Where, fn)
	walkExpr(sel.Having, fn)
	for _, o := range sel.OrderBy {
		walkExpr(o.E, fn)
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch t := e.(type) {
	case Bin:
		walkExpr(t.L, fn)
		walkExpr(t.R, fn)
	case Not:
		walkExpr(t.E, fn)
	case Neg:
		walkExpr(t.E, fn)
	case IsNull:
		walkExpr(t.E, fn)
	case Call:
		for _, a := range t.Args {
			walkExpr(a, fn)
		}
	case Subquery:
		WalkExprs(t.Sel, fn)
	case InSubquery:
		walkExpr(t.L, fn)
		WalkExprs(t.Sel, fn)
	case ExistsSubquery:
		WalkExprs(t.Sel, fn)
	}
}
